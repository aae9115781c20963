package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"scaffe"
	"scaffe/internal/chaos"
	"scaffe/internal/coll"
	"scaffe/internal/data"
	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

// call is one call into a public entry point of the program.
type call struct {
	// key names the call's inputs; goldens and the repeat check are
	// keyed by it.
	key string
	// ops is the work the call completes, in the workload's op unit.
	ops int
	// run makes the call and returns its virtual-time output,
	// canonically encoded so equal outputs are equal strings.
	run func() (string, error)
}

// workload is one set of inputs the benchmark runs. Its calls form a
// pass that the benchmark repeats; every workload's pass does the same
// work on every seed, so host time is comparable across seeds.
type workload struct {
	name string
	// op is what one unit of ops_per_cpu_s is.
	op string
	// seedFree marks a workload whose seed only orders its calls, so the
	// default seed's goldens hold on every seed.
	seedFree bool
	// normalised marks a workload whose gated times are normalised by
	// the pointer-chase reference (calib.go): its host time goes to the
	// simulator's pointer-chasing, which contention for the host's
	// caches and memory slows as it slows the chase.
	normalised bool
	// calls builds one pass of calls from the seed.
	calls func(seed int64) ([]call, error)
	// traced builds a pass of the same calls (plus, where the layer
	// metrics need them, calls of other sizes) that record spans around
	// the calls they make into each layer's public functions.
	traced func(seed int64, tr *tracer) ([]call, error)
	// spanMetrics derives the workload's per-layer metrics from the
	// traced pass's spans.
	spanMetrics func(spans []span, m metrics)
}

var workloads = []*workload{googlenet, reduceSweep, cifar, chaosWorkload}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// traceCall wraps c in a root span labelled with its key; body gets the
// span id so the spans it records become the call's children.
func traceCall(tr *tracer, c call, body func(parent int64) (string, error)) call {
	c.run = func() (string, error) {
		id, start := tr.newID(), time.Now()
		out, err := body(id)
		tr.end(id, 0, "call", c.key, start, float64(c.ops))
		return out, err
	}
	return c
}

// trainOutput encodes a training run's virtual-time output bit-exactly:
// total time, throughput, and the per-iteration losses.
func trainOutput(r *scaffe.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "total=%d sps=%016x", int64(r.TotalTime), math.Float64bits(r.SamplesPerSec))
	for _, l := range r.Losses {
		fmt.Fprintf(&b, " %08x", math.Float32bits(l))
	}
	return b.String()
}

// spansNamed returns the spans with the given name.
func spansNamed(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// meanMs is the mean duration of spans in milliseconds, 0 without spans.
func meanMs(spans []span) float64 {
	if len(spans) == 0 {
		return 0
	}
	return totalMs(spans) / float64(len(spans))
}

func totalMs(spans []span) float64 {
	var t time.Duration
	for _, s := range spans {
		t += s.dur()
	}
	return float64(t) / float64(time.Millisecond)
}

// ---- googlenet-512-scobr ----

const googlenetIters = 2

// googlenet is the scale-out case: 512 ranks of cost-model GoogLeNet
// under SC-OBR, almost all host time in sim, sched, mpi and coll.
var googlenet = &workload{
	name:       "googlenet-512-scobr",
	op:         "simulated rank-iteration",
	normalised: true,
	calls: func(seed int64) ([]call, error) {
		spec, err := scaffe.Model("googlenet")
		if err != nil {
			return nil, err
		}
		return []call{googlenetCall(spec, seed, googlenetIters)}, nil
	},
	// Calls at two iteration counts split a call into a per-iteration
	// and a fixed (set-up and teardown) part.
	traced: func(seed int64, tr *tracer) ([]call, error) {
		spec, err := scaffe.Model("googlenet")
		if err != nil {
			return nil, err
		}
		var pass []call
		for _, iters := range []int{googlenetIters, 1} {
			c := googlenetCall(spec, seed, iters)
			pass = append(pass, traceCall(tr, c, func(int64) (string, error) { return c.run() }))
		}
		return pass, nil
	},
	spanMetrics: func(spans []span, m metrics) {
		var long, short []float64
		for _, s := range spansNamed(spans, "call") {
			ms := float64(s.dur()) / float64(time.Millisecond)
			if s.label == googlenetKey(googlenetIters) {
				long = append(long, ms)
			} else {
				short = append(short, ms)
			}
		}
		if len(long) == 0 || len(short) == 0 {
			return
		}
		iter := (median(long) - median(short)) / (googlenetIters - 1)
		m.set("core.iter_ms", iter)
		m.set("core.fixed_ms", median(short)-iter)
	},
}

func googlenetKey(iters int) string { return fmt.Sprintf("iters=%d", iters) }

func googlenetCall(spec *scaffe.Spec, seed int64, iters int) call {
	cfg := scaffe.Config{
		Spec:        spec,
		GPUs:        512,
		Nodes:       32,
		GPUsPerNode: 16,
		GlobalBatch: 2048,
		Iterations:  iters,
		Design:      scaffe.SCOBR,
		Reduce:      scaffe.ReduceHR,
		Source:      scaffe.InMemory,
		Seed:        seed,
	}
	return call{key: googlenetKey(iters), ops: cfg.GPUs * iters, run: func() (string, error) {
		res, err := scaffe.Train(cfg)
		if err != nil {
			return "", err
		}
		return trainOutput(res), nil
	}}
}

// ---- reduce-sweep-160 ----

const reduceRanks = 160

type reducePoint struct {
	name  string
	alg   scaffe.ReduceAlgorithm
	bytes int64
}

var reduceAlgs = []struct {
	name string
	alg  scaffe.ReduceAlgorithm
}{
	{"hr", scaffe.ReduceHR}, {"cc", scaffe.ReduceCC}, {"cb", scaffe.ReduceCB},
	{"binomial", scaffe.ReduceBinomial}, {"chain", scaffe.ReduceChain},
	{"rabenseifner", scaffe.ReduceRabenseifner}, {"mv2", scaffe.ReduceMV2},
	{"openmpi", scaffe.ReduceOpenMPI},
}

// reducePoints is the OSU-style sweep, 8 algorithms x 4 KiB..256 MiB
// in x4 steps, in an order permuted by the seed.
func reducePoints(seed int64) []reducePoint {
	var pts []reducePoint
	for _, a := range reduceAlgs {
		for b := int64(4 << 10); b <= 256<<20; b *= 4 {
			pts = append(pts, reducePoint{a.name, a.alg, b})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

func (p reducePoint) key() string { return fmt.Sprintf("%s/%d", p.name, p.bytes) }

// reduceSweep is the Figs. 11/12 OSU sweep at 160 ranks: coll, mpi and
// topology on the eager and the chunked rendezvous paths, without sched,
// core or the parallel kernel.
var reduceSweep = &workload{
	name:       "reduce-sweep-160",
	op:         "reduction call",
	seedFree:   true,
	normalised: true,
	calls: func(seed int64) ([]call, error) {
		var pass []call
		for _, p := range reducePoints(seed) {
			pass = append(pass, call{key: p.key(), ops: 1, run: func() (string, error) {
				d, err := scaffe.ReduceBench(scaffe.ReduceBenchConfig{Ranks: reduceRanks, Bytes: p.bytes, Algorithm: p.alg})
				return strconv.FormatInt(int64(d), 10), err
			}})
		}
		return pass, nil
	},
	traced: func(seed int64, tr *tracer) ([]call, error) {
		var pass []call
		for _, p := range reducePoints(seed) {
			c := call{key: p.key(), ops: 1}
			pass = append(pass, traceCall(tr, c, func(parent int64) (string, error) {
				return tracedReduce(tr, parent, p)
			}))
		}
		return pass, nil
	},
	spanMetrics: func(spans []span, m metrics) {
		for _, a := range reduceAlgs {
			m.set("coll."+a.name+".reduce_ms", meanMs(spansNamed(spans, "coll."+a.name+".reduce")))
		}
		m.set("mpi.barrier_ms", meanMs(spansNamed(spans, "mpi.barrier")))
		m.set("mpi.world_setup_ms", meanMs(spansNamed(spans, "mpi.world_setup")))
	},
}

// reduceBenchTag and reduceTrials match scaffe.ReduceBench, whose
// measurement loop tracedReduce repeats with spans around the layer
// calls; the goldens check that both give the same latency.
const (
	reduceBenchTag = 10
	reduceTrials   = 3
)

// tracedReduce is scaffe.ReduceBench at 160 ranks with rank 0's calls
// into topology/mpi set-up, Barrier and Reduce timed as spans.
func tracedReduce(tr *tracer, parent int64, p reducePoint) (string, error) {
	const perNode = 16
	id, start := tr.newID(), time.Now()
	k := sim.New()
	cluster := topology.New(k, "bench", (reduceRanks+perNode-1)/perNode, perNode, topology.DefaultParams())
	world := mpi.NewWorld(cluster, reduceRanks)
	comm := world.WorldComm()
	tr.end(id, parent, "mpi.world_setup", "", start, 0)
	red := coll.NewReducer(comm, p.alg, coll.DefaultOptions())

	timed := func(r *mpi.Rank, name string, fn func()) {
		if r.ID != 0 {
			fn()
			return
		}
		id, start := tr.newID(), time.Now()
		fn()
		tr.end(id, parent, name, "", start, 0)
	}
	reduceName := "coll." + p.name + ".reduce"
	var total sim.Duration
	var enterBarrier, lastDone sim.Time
	_, err := world.Run(func(r *mpi.Rank) {
		buf := gpu.NewBuffer(p.bytes)
		for trial := 0; trial < reduceTrials+1; trial++ {
			timed(r, "mpi.barrier", func() { comm.Barrier(r) })
			if r.ID == 0 {
				enterBarrier = r.Now()
			}
			timed(r, reduceName, func() { red.Reduce(r, buf, reduceBenchTag) })
			if r.Now() > lastDone {
				lastDone = r.Now()
			}
			timed(r, "mpi.barrier", func() { comm.Barrier(r) })
			if r.ID == 0 && trial > 0 { // skip the warm-up
				total += lastDone - enterBarrier
			}
		}
	})
	if err != nil {
		return "", err
	}
	return strconv.FormatInt(int64(total/reduceTrials), 10), nil
}

// ---- cifar10-real-4 ----

const (
	cifarRanks = 4
	cifarIters = 2
	cifarBatch = 64
)

// cifar is real float32 CIFAR-10-quick on 4 ranks: host time in
// tensor, layers and solver, little in sim or mpi.
var cifar = &workload{
	name: "cifar10-real-4",
	op:   "trained sample",
	calls: func(seed int64) ([]call, error) {
		cfg, err := cifarConfig(seed)
		if err != nil {
			return nil, err
		}
		return []call{{key: "train", ops: cifarBatch * cifarIters, run: func() (string, error) {
			res, err := scaffe.Train(cfg)
			if err != nil {
				return "", err
			}
			return trainOutput(res), nil
		}}}, nil
	},
	traced: func(seed int64, tr *tracer) ([]call, error) {
		cfg, err := cifarConfig(seed)
		if err != nil {
			return nil, err
		}
		c := call{key: "train", ops: cifarBatch * cifarIters}
		return []call{traceCall(tr, c, func(parent int64) (string, error) {
			res, err := scaffe.Train(timedConfig(cfg, tr, parent))
			if err != nil {
				return "", err
			}
			return trainOutput(res), nil
		})}, nil
	},
	spanMetrics: func(spans []span, m metrics) {
		rankIters := float64(len(spansNamed(spans, "call")) * cifarRanks * cifarIters)
		if rankIters == 0 {
			return
		}
		for _, k := range []string{"conv", "pool", "relu", "ip"} {
			for _, dir := range []string{"fwd", "bwd"} {
				m.set("layers."+k+"."+dir+"_ms", totalMs(spansNamed(spans, "layers."+k+"."+dir))/rankIters)
			}
			if k == "conv" || k == "ip" {
				s := append(spansNamed(spans, "layers."+k+".fwd"), spansNamed(spans, "layers."+k+".bwd")...)
				var flops float64
				for _, x := range s {
					flops += x.work
				}
				if ms := totalMs(s); ms > 0 {
					m.set("tensor."+k+"_gflops", flops/(ms*1e6))
				}
			}
		}
		m.set("data.fill_us", meanMs(spansNamed(spans, "data.fill"))*1e3)
	},
}

func cifarConfig(seed int64) (scaffe.Config, error) {
	build, err := scaffe.RealNetBuilder("cifar10-quick")
	if err != nil {
		return scaffe.Config{}, err
	}
	ds, err := scaffe.SyntheticDataset("cifar10-quick", 4096, 11)
	if err != nil {
		return scaffe.Config{}, err
	}
	spec, err := scaffe.Model("cifar10-quick")
	if err != nil {
		return scaffe.Config{}, err
	}
	return scaffe.Config{
		Spec:        spec,
		RealNet:     build,
		Dataset:     ds,
		GPUs:        cifarRanks,
		GlobalBatch: cifarBatch,
		Iterations:  cifarIters,
		Design:      scaffe.SCOBR,
		Reduce:      scaffe.ReduceHR,
		Source:      scaffe.InMemory,
		BaseLR:      0.05,
		Momentum:    0.9,
		Seed:        seed,
	}, nil
}

// timedConfig returns cfg with its net's layers and its dataset's sample
// fills timed as children of span parent.
func timedConfig(cfg scaffe.Config, tr *tracer, parent int64) scaffe.Config {
	cfg.RealNet = timedNet(cfg.RealNet, tr, parent)
	if f, ok := cfg.Dataset.(data.Filler); ok {
		cfg.Dataset = &timedDataset{Dataset: cfg.Dataset, filler: f, tr: tr, parent: parent}
	}
	return cfg
}

// ---- chaos-16 ----

const chaosPool = 48

var chaosDesigns = []scaffe.Design{scaffe.SCB, scaffe.SCOB, scaffe.SCOBR}

// chaosSpecs is a fixed pool of 16-rank timing-mode specs with the
// default fault mix, cycling SC-B/SC-OB/SC-OBR, in an order permuted by
// the seed. The pool is fixed because specs differ widely in cost: a
// pool drawn from the seed would make host time depend on the seed.
func chaosSpecs(seed int64) []chaos.Spec {
	specs := make([]chaos.Spec, chaosPool)
	for i := range specs {
		specs[i] = chaos.Spec{
			Ranks:      16,
			Iterations: 8,
			Events:     6,
			Seed:       1000 + int64(i),
			Design:     chaosDesigns[i%len(chaosDesigns)],
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// chaosWorkload verifies seeded chaos specs at 16 ranks: the fault,
// recovery and wire-perturbation paths no other workload reaches, in
// many short calls.
var chaosWorkload = &workload{
	name:       "chaos-16",
	op:         "verified chaos spec",
	seedFree:   true,
	normalised: true,
	calls: func(seed int64) ([]call, error) {
		var pass []call
		for _, s := range chaosSpecs(seed) {
			pass = append(pass, call{key: fmt.Sprint(s.Seed), ops: 1, run: func() (string, error) {
				r, err := chaos.Verify(s)
				if err != nil {
					return "", err
				}
				return chaosOutput(r), nil
			}})
		}
		return pass, nil
	},
	traced: func(seed int64, tr *tracer) ([]call, error) {
		var pass []call
		for _, s := range chaosSpecs(seed) {
			c := call{key: fmt.Sprint(s.Seed), ops: 1}
			pass = append(pass, traceCall(tr, c, func(parent int64) (string, error) {
				return tracedChaos(tr, parent, s)
			}))
		}
		return pass, nil
	},
	spanMetrics: func(spans []span, m metrics) {
		faulted := spansNamed(spans, "fault.faulted_run")
		m.set("core.baseline_run_ms", meanMs(spansNamed(spans, "core.baseline_run")))
		m.set("fault.faulted_run_ms", meanMs(faulted))
		var rec float64
		for _, s := range faulted {
			rec += s.work
		}
		if len(faulted) > 0 {
			m.set("fault.recoveries_per_op", rec/float64(len(faulted)))
		}
	},
}

// chaosOutput encodes a chaos run's outcome with its full fault report.
func chaosOutput(r *chaos.RunResult) string {
	s := fmt.Sprintf("outcome=%s events=%d", r.Outcome, len(r.Schedule))
	if r.Res != nil {
		s += fmt.Sprintf(" total=%d", int64(r.Res.TotalTime))
		if r.Res.Fault != nil {
			s += fmt.Sprintf(" fault=%#v", *r.Res.Fault)
		}
	}
	if r.Err != nil {
		s += " err=" + r.Err.Error()
	}
	return s
}

// tracedChaos is chaos.Verify with its fault-free calibration run and
// its faulted run timed as separate spans. The detection quantum and
// virtual-time ceiling repeat chaos.Run's rules; the goldens check that
// both give the same outcome.
func tracedChaos(tr *tracer, parent int64, s chaos.Spec) (string, error) {
	cfg := s.Config()
	id, start := tr.newID(), time.Now()
	base, err := scaffe.Train(cfg)
	tr.end(id, parent, "core.baseline_run", "", start, 0)
	if err != nil {
		return "", fmt.Errorf("chaos baseline run: %w", err)
	}
	horizon := sim.Duration(base.TotalTime)
	sched := s.Schedule(horizon)
	quantum := max(horizon/200, sim.Microsecond)
	cfg.Faults = sched
	cfg.FaultTimeout = quantum
	cfg.MaxVirtualTime = horizon*sim.Duration(10+4*len(sched)) + 100*47*quantum

	id, start = tr.newID(), time.Now()
	res, err := scaffe.Train(cfg)
	var recoveries float64
	if res != nil && res.Fault != nil {
		recoveries = float64(len(res.Fault.Recoveries))
	}
	tr.end(id, parent, "fault.faulted_run", "", start, recoveries)

	r := &chaos.RunResult{Spec: s, Schedule: sched, Res: res}
	switch {
	case err == nil:
		r.Outcome = chaos.Finished
		if err := chaos.CheckCounters(r); err != nil {
			return "", fmt.Errorf("chaos %s: %w", s, err)
		}
	case errors.Is(err, scaffe.ErrUnrecovered):
		r.Outcome, r.Err = chaos.Unrecovered, err
	default:
		return "", fmt.Errorf("chaos %s: run wedged: %w", s, err)
	}
	return chaosOutput(r), nil
}
