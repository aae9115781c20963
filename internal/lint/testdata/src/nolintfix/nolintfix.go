// Package nolintfix exercises the //scaffe:nolint machinery: a
// well-formed suppression silences its diagnostic, and the linter
// polices the directives themselves (the want-1 expectations attach to
// the directive line above, which cannot carry a second comment). It
// also pins the directive grammar: a //scaffe: word other than
// hotpath, coldpath, or nolint is reported rather than ignored.
package nolintfix

import "time"

// The suppression below is well-formed, so the time.Now violation it
// covers produces no diagnostic.
func suppressed() time.Time {
	//scaffe:nolint determinism fixture demonstrates a justified wall-clock read
	return time.Now()
}

func badDirectives() time.Time {
	//scaffe:nolint
	t := time.Now() // want `time.Now reads the wall clock` want-1 `malformed //scaffe:nolint`

	//scaffe:nolint bogus some reason
	u := time.Now() // want `time.Now reads the wall clock` want-1 `unknown pass "bogus"`

	//scaffe:nolint determinism
	v := time.Now() // want `time.Now reads the wall clock` want-1 `needs a non-empty reason`

	return t.Add(time.Until(u)).Add(time.Until(v))
}

// retired carries an annotation of a contract the linter does not know.
//
//scaffe:parallel
func retired() {} // want-1 `unknown directive //scaffe:parallel`
