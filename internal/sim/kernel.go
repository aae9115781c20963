//go:build go1.23

// The constraint raises this file's language version to go1.23, which
// iter.Pull needs while go.mod still says go 1.22; drop it when go.mod
// moves to go 1.23.

// Package sim implements a deterministic discrete-event simulation
// kernel. Simulated processes ("procs") are coroutines (iter.Pull)
// driven by Kernel.Run: exactly one proc (or the kernel itself)
// executes at a time, and all blocking operations park the proc on the
// kernel's event queue. A resume is a direct coroutine switch, with no
// goroutine scheduling, channel or futex on the path. Events are
// ordered by (virtual time, sequence number), so a simulation with a
// fixed set of inputs is bit-for-bit reproducible across runs.
//
// The kernel carries virtual time only; wall-clock time spent in Go
// code inside a proc is invisible to the simulation. A proc advances
// virtual time explicitly with Sleep/WaitUntil or implicitly by
// waiting on Completions fired by scheduled events.
package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Time is a point in virtual time, in nanoseconds since the start of
// the simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds. It is a distinct
// name for readability; arithmetic mixes freely with Time.
type Duration = Time

// Convenient virtual-time units.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds returns the time as a floating-point number of ms.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Microseconds returns the time as a floating-point number of µs.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Microseconds())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Kernel is a discrete-event simulation engine. The zero value is not
// usable; create one with New.
type Kernel struct {
	now      Time
	seq      uint64
	nowQ     nowRing
	cal      calendarQueue
	procs    []*Proc
	live     int // procs spawned but not yet finished
	maxTime  Time
	stopped  bool
	failure  error
	compPool []*Completion

	// handoff is the proc the event loop last handed control to: a
	// parking proc that finds another proc's resume yields back to Run,
	// and Run resumes handoff.
	handoff *Proc
}

// New returns a fresh kernel at virtual time zero.
func New() *Kernel {
	return &Kernel{maxTime: 1 << 62}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// SetDeadline makes Run fail if virtual time would pass t. Useful as a
// watchdog against runaway simulations.
func (k *Kernel) SetDeadline(t Time) { k.maxTime = t }

// schedule stamps e with its due time and sequence number and routes
// it to the same-instant ring or the calendar. Past times clamp to
// now, so the event runs at the current instant but strictly after
// everything already scheduled for it.
//
//scaffe:hotpath
func (k *Kernel) schedule(t Time, e event) {
	if t <= k.now {
		k.seq++
		e.at, e.seq = k.now, k.seq
		k.nowQ.push(e)
		return
	}
	k.seq++
	e.at, e.seq = t, k.seq
	k.cal.insert(e)
}

// At schedules fn to run in kernel context at virtual time t. If t is
// in the past it runs at the current time (but strictly after all
// previously scheduled events for that time).
func (k *Kernel) At(t Time, fn func()) {
	k.schedule(t, event{kind: evFunc, fn: fn})
}

// After schedules fn to run d nanoseconds of virtual time from now.
func (k *Kernel) After(d Duration, fn func()) { k.At(k.now+d, fn) }

// AtRun schedules r's RunEvent to execute in kernel context at
// virtual time t. It is the closure-free analogue of At for pooled
// event records owned by higher layers.
func (k *Kernel) AtRun(t Time, r Runnable) {
	k.schedule(t, event{kind: evRun, run: r})
}

// atResume schedules an unconditional resume of p at time t.
//
//scaffe:hotpath
func (k *Kernel) atResume(t Time, p *Proc) {
	k.schedule(t, event{kind: evResume, p: p})
}

// atResumeIf schedules a guarded resume of p at time t, delivered
// only if p is still parked on the wait armed with seq.
//
//scaffe:hotpath
func (k *Kernel) atResumeIf(t Time, p *Proc, seq uint64) {
	k.schedule(t, event{kind: evResumeIf, p: p, aux: seq})
}

// atFire schedules c to fire at time t, guarded by c's current
// generation: if c is recycled before t, the event dissolves.
//
//scaffe:hotpath
func (k *Kernel) atFire(t Time, c *Completion) {
	k.schedule(t, event{kind: evFire, c: c, aux: c.gen})
}

// popEvent removes the globally-minimum event under the two-tier pop
// rule: a calendar event due at or before now always precedes every
// ring event (it was scheduled strictly earlier — smaller seq); an
// empty ring lets the calendar minimum advance virtual time.
//
//scaffe:hotpath
func (k *Kernel) popEvent() event {
	if t, ok := k.cal.minTime(); ok && t <= k.now {
		return k.cal.pop()
	}
	if k.nowQ.len() > 0 {
		return k.nowQ.pop()
	}
	return k.cal.pop()
}

// pending returns the number of queued events.
func (k *Kernel) pending() int { return k.nowQ.len() + k.cal.count }

// loopState is loopFrom's verdict on where control went.
type loopState int

const (
	// loopHanded: the next event resumes another proc, recorded in
	// k.handoff; Run must resume it (a parking caller yields to Run
	// first).
	loopHanded loopState = iota
	// loopSelf: the next event resumes the calling proc itself; no
	// switch is needed — the caller just keeps running.
	loopSelf
	// loopTerminal: no events remain, Stop was called, the deadline
	// passed, or a failure was recorded. A parking caller yields to
	// Run, which returns.
	loopTerminal
)

// loopFrom runs the event loop until control must pass to a proc or
// the simulation terminates. It runs on Run's goroutine (self == nil)
// or inside a parking proc's coroutine (self == that proc): a parking
// proc drives the loop itself, so when the next event resumes that
// same proc it keeps running with no switch at all. When an event
// resumes another proc, the loop records it in k.handoff and stops.
//
// Exactly one coroutine executes loopFrom at any moment, so kernel
// state needs no locking and event order is identical to the classic
// central loop.
func (k *Kernel) loopFrom(self *Proc) loopState {
	for {
		if k.stopped || k.failure != nil {
			return loopTerminal
		}
		if k.nowQ.len() == 0 && k.cal.count == 0 {
			return loopTerminal
		}
		ev := k.popEvent()
		if ev.at > k.maxTime {
			k.failure = fmt.Errorf("sim: deadline exceeded at %v (deadline %v)", ev.at, k.maxTime)
			return loopTerminal
		}
		k.now = ev.at
		switch ev.kind {
		case evResume:
			p := ev.p
			if p.finished {
				continue
			}
			if p == self {
				return loopSelf
			}
			k.handoff = p
			return loopHanded
		case evResumeIf:
			p := ev.p
			if p.finished || !p.waitArmed || p.waitSeq != ev.aux {
				continue // stale wake: the proc timed out or moved on
			}
			if p == self {
				return loopSelf
			}
			k.handoff = p
			return loopHanded
		case evFunc:
			ev.fn()
		case evFire:
			ev.c.FireIf(ev.aux)
		case evRun:
			ev.run.RunEvent(k)
		}
	}
}

// Run executes the event loop until no events remain, then verifies
// that every spawned proc has finished. It returns an error on
// deadlock (procs remain parked with no pending events) or if the
// deadline set by SetDeadline is exceeded.
//
// Run is the one driver of the procs' coroutines. It resumes the proc
// the loop handed control to; that proc runs until it parks on
// another proc's resume (handoff set again: resume that one), or
// finishes or reaches a terminal state (handoff nil: continue the
// loop here, which returns at once if the state is terminal).
func (k *Kernel) Run() error {
	for k.handoff != nil || k.loopFrom(nil) == loopHanded {
		p := k.handoff
		k.handoff = nil
		p.next()
	}
	if k.failure != nil {
		return k.failure
	}
	if k.live > 0 {
		var stuck []string
		for _, p := range k.procs {
			if !p.finished {
				stuck = append(stuck, p.name)
			}
		}
		return fmt.Errorf("sim: deadlock at %v: %d proc(s) parked: %v", k.now, k.live, stuck)
	}
	return nil
}

// Stop aborts the event loop after the current event completes.
// Remaining parked procs stay parked; callers that Stop mid-run should
// not reuse the kernel.
func (k *Kernel) Stop() { k.stopped = true }

// Spawn creates a new simulated process running fn and schedules it to
// start at the current virtual time. It may be called before Run or
// from within any proc or event callback.
//
// The body runs as a coroutine that Run starts on the proc's first
// resume. Parked procs left behind by a deadlock or Stop stay
// suspended; their coroutines are never stopped.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name}
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			// A panicking proc fails the whole simulation rather than
			// the process: Run surfaces it as an error. The kill
			// sentinel is the exception — a killed proc is a normal
			// (if abrupt) exit.
			rec := recover()
			var fail error
			if rec != nil && !IsKilled(rec) {
				fail = fmt.Errorf("sim: proc %q panicked at %v: %v\n%s", p.name, k.now, rec, debug.Stack())
			}
			p.finished = true
			// Drop the coroutine: the kernel keeps its procs, and the
			// coroutine would keep fn and all it captured alive.
			p.next, p.yield = nil, nil
			if fail != nil && k.failure == nil {
				k.failure = fail
			}
			k.live--
		}()
		if p.killed {
			panic(procKilled{})
		}
		fn(p)
	})
	k.procs = append(k.procs, p)
	k.live++
	k.atResume(k.now, p)
	return p
}

// wakeAt schedules p to be resumed at time t.
//
//scaffe:hotpath
func (k *Kernel) wakeAt(p *Proc, t Time) {
	k.atResume(t, p)
}
