package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// goldensJSON holds every workload's virtual-time outputs at the
// default seed, by workload and call key, as recorded by
// -record-goldens. Virtual time is the reproduction's output: a change
// that moves any of these is a change to the model, not to host time.
//
//go:embed goldens.json
var goldensJSON []byte

func loadGoldens() (map[string]map[string]string, error) {
	var g map[string]map[string]string
	if err := json.Unmarshal(goldensJSON, &g); err != nil {
		return nil, fmt.Errorf("goldens.json: %w", err)
	}
	return g, nil
}

// maxReported caps the failures printed in full; all are counted.
const maxReported = 5

// checker checks each call's output against a reference: the golden
// where one applies, else the first output of a call with the same key
// in this run, so repeated calls must be bit-identical. Every error,
// panic or mismatch counts as a failed call.
type checker struct {
	want map[string]string
	// fixed means want holds goldens: a key without one fails.
	fixed             bool
	attempted, failed int
	log               io.Writer
}

func newChecker(w *workload, seed int64, log io.Writer) (*checker, error) {
	c := &checker{want: map[string]string{}, log: log}
	if seed == defaultSeed || w.seedFree {
		g, err := loadGoldens()
		if err != nil {
			return nil, err
		}
		if len(g[w.name]) == 0 {
			return nil, fmt.Errorf("no goldens for %s; run -record-goldens", w.name)
		}
		c.want, c.fixed = g[w.name], true
	}
	return c, nil
}

// check records one call's outcome and reports whether it passed.
func (c *checker) check(key, out string, err error) bool {
	c.attempted++
	ref, ok := c.want[key]
	switch {
	case err != nil:
		c.fail("call %s: %v", key, err)
	case !ok && c.fixed:
		c.fail("call %s: no golden output", key)
	case !ok:
		c.want[key] = out
		return true
	case out != ref:
		c.fail("call %s: output %q, want %q", key, out, ref)
	default:
		return true
	}
	return false
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if c.failed <= maxReported {
		fmt.Fprintf(c.log, "hostbench: FAIL "+format+"\n", args...)
	}
}

// recordGoldens runs every distinct call of every workload once at the
// default seed, through the public entry points where a plain call
// exists, and writes the outputs to path.
func recordGoldens(path string, log io.Writer) error {
	g := map[string]map[string]string{}
	for _, w := range workloads {
		start := time.Now()
		plain, err := w.calls(defaultSeed)
		if err != nil {
			return err
		}
		traced, err := w.traced(defaultSeed, newTracer())
		if err != nil {
			return err
		}
		out := map[string]string{}
		for _, c := range append(plain, traced...) {
			if _, done := out[c.key]; done {
				continue
			}
			o, err := invoke(c)
			if err != nil {
				return fmt.Errorf("%s call %s: %w", w.name, c.key, err)
			}
			out[c.key] = o
		}
		g[w.name] = out
		fmt.Fprintf(log, "hostbench: recorded %d outputs of %s in %v\n", len(out), w.name, time.Since(start).Round(time.Millisecond))
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
