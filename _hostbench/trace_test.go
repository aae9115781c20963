package main

import (
	"sync"
	"testing"
	"time"

	"scaffe"
	"scaffe/internal/data"
	"scaffe/internal/layers"
	"scaffe/internal/models"
	"scaffe/internal/tensor"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, start: 0, end: 100},
		// Two overlapping children (concurrent ranks) cover [10, 50);
		// one running past the parent's end covers [90, 100).
		{id: 2, parent: 1, start: 10, end: 30},
		{id: 3, parent: 1, start: 20, end: 50},
		{id: 4, parent: 1, start: 90, end: 120},
		// A grandchild counts against its own parent only.
		{id: 5, parent: 2, start: 12, end: 18},
		{id: 6, start: 200, end: 210},
	}
	want := map[int64]time.Duration{1: 50, 2: 14, 3: 30, 4: 30, 5: 6, 6: 10}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

// trainTiny trains the tiny real net on 4 ranks, optionally with the
// parallel kernel and with every layer and sample fill timed.
func trainTiny(t *testing.T, simParallel int, tr *tracer) string {
	t.Helper()
	ds := data.NewSynthetic("tiny", layers.Shape{C: 3, H: 8, W: 8}, 4, 512, 11)
	cfg := scaffe.Config{
		Spec:        models.SpecFromNet(models.BuildTinyNet(1, 1)),
		RealNet:     models.BuildTinyNet,
		Dataset:     ds,
		GPUs:        4,
		GlobalBatch: 32,
		Iterations:  4,
		Design:      scaffe.SCOBR,
		Reduce:      scaffe.ReduceHR,
		Source:      scaffe.InMemory,
		BaseLR:      0.05,
		Momentum:    0.9,
		Seed:        3,
		SimParallel: simParallel,
	}
	if tr != nil {
		cfg = timedConfig(cfg, tr, tr.newID())
	}
	res, err := scaffe.Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return trainOutput(res)
}

// The wrappers must be safe when the parallel kernel runs several
// ranks' layers at once (run with -race), and must not change a bit of
// the output.
func TestTimedLayersUnderParallelKernel(t *testing.T) {
	want := trainTiny(t, 1, nil)
	tr := newTracer()
	if got := trainTiny(t, 4, tr); got != want {
		t.Fatalf("timed parallel-kernel run output %q, want %q", got, want)
	}
	// 6 timed layers, forward and backward, 4 ranks, 4 iterations.
	if n := len(tr.snapshot()) - len(spansNamed(tr.snapshot(), "data.fill")); n != 6*2*4*4 {
		t.Errorf("recorded %d layer spans, want %d", n, 6*2*4*4)
	}
	if len(spansNamed(tr.snapshot(), "data.fill")) == 0 {
		t.Error("no data.fill spans: the timed dataset lost the Filler path")
	}
}

// Two goroutines drive their own timed nets into one tracer.
func TestTimedLayersConcurrent(t *testing.T) {
	tr := newTracer()
	const batch, rounds = 4, 20
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := timedNet(models.BuildTinyNet, tr, 1)(batch, 1)
			in := tensor.New(batch, 3, 8, 8)
			labels := make([]int, batch)
			for r := 0; r < rounds; r++ {
				n.ZeroGrads()
				n.Forward(in, labels)
				n.Backward()
			}
		}()
	}
	wg.Wait()
	if got, want := len(tr.snapshot()), 2*rounds*6*2; got != want {
		t.Fatalf("recorded %d spans, want %d", got, want)
	}
	for _, s := range tr.snapshot() {
		if s.end < s.start || s.parent != 1 {
			t.Fatalf("bad span %+v", s)
		}
	}
}

func TestTracedCallsMatchPlainCalls(t *testing.T) {
	if testing.Short() {
		t.Skip("trains CIFAR-10-quick")
	}
	for _, w := range []*workload{cifar, reduceSweep, chaosWorkload} {
		t.Run(w.name, func(t *testing.T) {
			plain, err := w.calls(defaultSeed)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			traced, err := w.traced(defaultSeed, tr)
			if err != nil {
				t.Fatal(err)
			}
			// The first few calls of each pass cover every call kind.
			for i := 0; i < min(3, len(plain)); i++ {
				want, err := invoke(plain[i])
				if err != nil {
					t.Fatal(err)
				}
				if traced[i].key != plain[i].key {
					t.Fatalf("traced call %d is %s, plain is %s", i, traced[i].key, plain[i].key)
				}
				got, err := invoke(traced[i])
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("call %s: traced output %q, plain %q", plain[i].key, got, want)
				}
			}
			if len(spansNamed(tr.snapshot(), "call")) == 0 || len(tr.snapshot()) <= len(spansNamed(tr.snapshot(), "call")) {
				t.Error("traced calls recorded no layer spans")
			}
		})
	}
}

func TestSimDrive(t *testing.T) {
	r, e, err := simDrive()
	if err != nil {
		t.Fatal(err)
	}
	if r <= 0 || e <= 0 {
		t.Fatalf("resume %g ns, event %g ns", r, e)
	}
}
