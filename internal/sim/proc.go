package sim

// Proc is a simulated process: a goroutine scheduled cooperatively by
// the kernel. At most one proc runs at any instant, so proc code may
// touch shared simulation state without locks.
type Proc struct {
	k        *Kernel
	name     string
	wake     chan struct{}
	finished bool
	killed   bool

	// waitSeq/waitArmed guard completion wake-ups: every Wait arms a
	// fresh sequence number, and a wake event only delivers if the proc
	// is still parked on that same wait. This lets a completion and a
	// timeout race for the same parked proc without ever resuming it
	// twice (a double resume would block the kernel goroutine).
	waitSeq   uint64
	waitArmed bool
}

// procKilled is the panic value a killed proc unwinds with; Spawn's
// recovery treats it as a normal exit.
type procKilled struct{}

// IsKilled reports whether a recovered panic value is the proc-kill
// sentinel, for intermediate recover()s that must not swallow it.
func IsKilled(rec any) bool {
	_, ok := rec.(procKilled)
	return ok
}

// Name returns the name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Finished reports whether the proc has returned (or been killed).
func (p *Proc) Finished() bool { return p.finished }

// Kill terminates the proc at the current virtual time: its next
// resumption panics with a sentinel that the kernel treats as a normal
// exit. This is the fault plane's rank-crash primitive. Killing a
// finished or already-killed proc is a no-op.
func (p *Proc) Kill() {
	if p.finished || p.killed {
		return
	}
	p.killed = true
	p.k.atResume(p.k.now, p)
}

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// park yields control to the kernel and blocks until some event
// resumes this proc. A killed proc unwinds here instead of returning.
//
// In the sequential daisy-chain, the parking proc runs the event loop
// itself (loopFrom) and hands the baton directly to the next proc —
// one goroutine switch per segment instead of two — or keeps running
// with no switch at all when the next event resumes this same proc.
func (p *Proc) park() {
	k := p.k
	// The loopFrom call is a context switch, not a subroutine: the
	// parking proc's hot frame ends here and the event loop runs other
	// procs' events under its own gates (the kernel's //scaffe:hotpath
	// annotations and the zero-alloc steady-state test), so the caller's
	// obligations must not flood into it.
	//
	//scaffe:coldpath control transfer into the event loop; the kernel's own hotpath gates cover it
	switch k.loopFrom(p) {
	case loopSelf:
		// The next event resumes this proc: keep running.
	case loopTerminal:
		k.home <- struct{}{}
		<-p.wake
	case loopHanded:
		<-p.wake
	}
	if p.killed {
		panic(procKilled{})
	}
}

// armWait returns a fresh wait sequence number and marks the proc as
// parked on a guarded wait (see Proc.waitSeq).
func (p *Proc) armWait() uint64 {
	p.waitSeq++
	p.waitArmed = true
	return p.waitSeq
}

// Sleep advances this proc's virtual time by d, allowing other events
// to run in between.
func (p *Proc) Sleep(d Duration) {
	if d <= 0 {
		p.Yield()
		return
	}
	p.k.atResume(p.k.now+d, p)
	p.park()
}

// WaitUntil blocks until virtual time t (no-op if t is in the past,
// beyond a yield).
func (p *Proc) WaitUntil(t Time) {
	p.k.atResume(t, p)
	p.park()
}

// Yield gives other events scheduled for the current instant a chance
// to run before this proc continues.
func (p *Proc) Yield() {
	p.k.atResume(p.k.now, p)
	p.park()
}

// Wait blocks until c fires. If c has already fired it returns
// immediately without yielding.
func (p *Proc) Wait(c *Completion) {
	if c.fired {
		return
	}
	c.addWaiter(waiter{p, p.armWait()})
	p.park()
	p.waitArmed = false
}

// WaitTimeout blocks until c fires or d virtual time elapses,
// whichever comes first, and reports whether c has fired. It is the
// primitive under fault-aware MPI waits: a deadline that expires
// without progress lets the caller consult the fault plane instead of
// blocking forever on a dead peer.
func (p *Proc) WaitTimeout(c *Completion, d Duration) bool {
	if c.fired {
		return true
	}
	seq := p.armWait()
	c.addWaiter(waiter{p, seq})
	p.k.atResumeIf(p.k.now+d, p, seq)
	p.park()
	p.waitArmed = false
	return c.fired
}

// WaitAll blocks until every completion in cs has fired.
func (p *Proc) WaitAll(cs ...*Completion) {
	for _, c := range cs {
		p.Wait(c)
	}
}
