package sim

import (
	"runtime"
	"strings"
	"testing"
)

// pingPongKernel spawns two procs that hand control back and forth
// through pooled Completions, rounds times each: every resume moves
// the baton to the other proc.
func pingPongKernel(rounds int) *Kernel {
	k := New()
	var box [2]*Completion
	box[0], box[1] = k.GetCompletion(), k.GetCompletion()
	player := func(me int) func(p *Proc) {
		return func(p *Proc) {
			if me == 0 {
				box[1].Fire()
			}
			for i := 0; i < rounds; i++ {
				p.Wait(box[me])
				k.PutCompletion(box[me])
				box[me] = k.GetCompletion()
				box[1-me].Fire()
			}
		}
	}
	k.Spawn("ping", player(0))
	k.Spawn("pong", player(1))
	return k
}

// selfSleepKernel spawns one proc that sleeps n times: every resume is
// the zero-switch path (the next event resumes the parking proc).
func selfSleepKernel(n int) *Kernel {
	k := New()
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	return k
}

// BenchmarkSimProcResume measures the bare cost of resuming a parked
// proc, with no model code around it; one op is one proc resume. The
// procs are spawned before the timer starts, so a steady-state resume
// must report 0 allocs/op.
func BenchmarkSimProcResume(b *testing.B) {
	cases := []struct {
		name  string
		build func(n int) *Kernel
	}{
		{"pingpong", func(n int) *Kernel { return pingPongKernel(n/2 + 1) }},
		{"self-sleep", selfSleepKernel},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			k := c.build(b.N)
			b.ReportAllocs()
			b.ResetTimer()
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestProcResumeZeroAlloc pins the 0 allocs/op of
// BenchmarkSimProcResume: a run's allocations (kernel queues, the
// first Run's set-up) do not grow with the number of resumes. The
// slack of 10 absorbs the odd runtime allocation that lands in the
// measuring window; one allocation per resume would add 4000 or more.
func TestProcResumeZeroAlloc(t *testing.T) {
	runAllocs := func(k *Kernel) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	for _, c := range []struct {
		name  string
		build func(n int) *Kernel
	}{
		{"pingpong", pingPongKernel},
		{"self-sleep", selfSleepKernel},
	} {
		small, large := runAllocs(c.build(1000)), runAllocs(c.build(5000))
		if large > small+10 {
			t.Errorf("%s: %d allocs at 1000 rounds, %d at 5000; want no growth", c.name, small, large)
		}
	}
}

// TestKillBeforeFirstResume: a proc killed before Run first resumes it
// finishes without ever running its body, whether it was spawned
// before Run or by another proc.
func TestKillBeforeFirstResume(t *testing.T) {
	k := New()
	ran := 0
	body := func(p *Proc) { ran++ }
	early := k.Spawn("early", body)
	early.Kill()
	var late *Proc
	k.Spawn("spawner", func(p *Proc) {
		late = k.Spawn("late", body)
		late.Kill()
		p.Sleep(10)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 0 {
		t.Errorf("killed procs ran their body %d time(s)", ran)
	}
	if !early.Finished() || !late.Finished() {
		t.Errorf("killed procs not finished: early=%v late=%v", early.Finished(), late.Finished())
	}
}

// TestCallbackPanicInsideParkNamesProc: a parking proc drives the
// event loop itself, so a kernel callback that panics there unwinds
// through that proc. Run must surface it as an error naming the proc,
// and the process must survive. "early" parks first and hands control
// to "last"; the callback at t=5 then runs inside last's park.
func TestCallbackPanicInsideParkNamesProc(t *testing.T) {
	k := New()
	k.Spawn("early", func(p *Proc) { p.Sleep(10) })
	k.Spawn("last", func(p *Proc) { p.Sleep(20) })
	k.At(5, func() { panic("callback boom") })
	err := k.Run()
	if err == nil {
		t.Fatal("a panicking callback should fail Run")
	}
	msg := err.Error()
	if !strings.Contains(msg, `proc "last" panicked`) || !strings.Contains(msg, "callback boom") {
		t.Errorf("error does not name the proc that ran the callback: %v", msg)
	}
}

// TestRunReturnsWithParkedProcs: after a deadlock or Stop leaves procs
// parked (their coroutines suspended for good), Run still returns, and
// a fresh kernel then runs normally on the same goroutine.
func TestRunReturnsWithParkedProcs(t *testing.T) {
	for _, stop := range []bool{false, true} {
		k := New()
		c := k.NewCompletion()
		stuck := k.Spawn("stuck", func(p *Proc) { p.Wait(c) })
		if stop {
			k.Spawn("stopper", func(p *Proc) {
				p.Sleep(1)
				k.Stop()
				p.Sleep(1)
			})
		}
		err := k.Run()
		if err == nil || !strings.Contains(err.Error(), "stuck") {
			t.Errorf("stop=%v: Run = %v, want a deadlock error naming the parked proc", stop, err)
		}
		if stuck.Finished() {
			t.Errorf("stop=%v: parked proc reported finished", stop)
		}

		fresh := pingPongKernel(100)
		if err := fresh.Run(); err != nil {
			t.Fatalf("stop=%v: fresh kernel: %v", stop, err)
		}
		if fresh.live != 0 {
			t.Errorf("stop=%v: fresh kernel left %d procs unfinished", stop, fresh.live)
		}
	}
}
