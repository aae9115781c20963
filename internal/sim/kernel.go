// Package sim implements a deterministic discrete-event simulation
// kernel. Simulated processes ("procs") are goroutines that run
// cooperatively: exactly one proc (or the kernel itself) executes at a
// time, and all blocking operations park the proc on the kernel's
// event queue. Events are ordered by (virtual time, sequence number),
// so a simulation with a fixed set of inputs is bit-for-bit
// reproducible across runs.
//
// The kernel carries virtual time only; wall-clock time spent in Go
// code inside a proc is invisible to the simulation. A proc advances
// virtual time explicitly with Sleep/WaitUntil or implicitly by
// waiting on Completions fired by scheduled events.
package sim

import (
	"fmt"
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

	// home returns the baton to the Run goroutine when the event loop —
	// which migrates across proc goroutines (see loopFrom) — reaches a
	// terminal state on one of them.
	home chan struct{}
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
	// loopHanded: the baton was handed to another proc via its wake
	// channel; the caller must block (or, for a finishing proc, exit).
	loopHanded loopState = iota
	// loopSelf: the next event resumes the calling proc itself; no
	// channel round-trip is needed — the caller just keeps running.
	loopSelf
	// loopTerminal: no events remain, Stop was called, the deadline
	// passed, or a failure was recorded. The caller must return the
	// baton to the Run goroutine (k.home) unless it is the Run
	// goroutine.
	loopTerminal
)

// loopFrom runs the event loop on the current goroutine until control
// is handed off or the simulation terminates. The loop migrates: when
// an event resumes a proc, the loop stops here and continues inside
// that proc's goroutine the next time it parks — a parking proc calls
// loopFrom itself instead of yielding to a central scheduler, halving
// the goroutine switches per segment. self is the calling proc (nil
// when called from Run or a finishing proc) and enables the zero-switch
// fast path when the next event resumes the caller.
//
// Exactly one goroutine executes loopFrom at any moment — control
// passes through an unbroken chain of channel operations — so kernel
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
			p.wake <- struct{}{}
			return loopHanded
		case evResumeIf:
			p := ev.p
			if p.finished || !p.waitArmed || p.waitSeq != ev.aux {
				continue // stale wake: the proc timed out or moved on
			}
			if p == self {
				return loopSelf
			}
			p.wake <- struct{}{}
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
func (k *Kernel) Run() error {
	if k.home == nil {
		k.home = make(chan struct{})
	}
	if k.loopFrom(nil) == loopHanded {
		// The loop migrated onto proc goroutines; whichever one reaches
		// a terminal state sends the baton home.
		<-k.home
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
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, wake: make(chan struct{})}
	k.procs = append(k.procs, p)
	k.live++
	go func() {
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
			if fail != nil && k.failure == nil {
				k.failure = fail
			}
			k.live--
			// The finishing proc owns the baton: keep driving the event
			// loop here, exactly as park does.
			if k.loopFrom(nil) == loopTerminal {
				k.home <- struct{}{}
			}
		}()
		<-p.wake // wait for the kernel to hand us the baton
		if p.killed {
			panic(procKilled{})
		}
		fn(p)
	}()
	k.atResume(k.now, p)
	return p
}

// wakeAt schedules p to be resumed at time t.
//
//scaffe:hotpath
func (k *Kernel) wakeAt(p *Proc, t Time) {
	k.atResume(t, p)
}
