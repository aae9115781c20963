// Command hostbench is the repository's host-time benchmark. It runs
// one named workload through the program's public entry points for a
// fixed number of host seconds, checks every call's virtual-time output
// against the goldens, and prints the end-to-end metrics; with -trace 1
// it prints per-layer metrics from spans around the calls it makes into
// each layer and from a CPU profile folded by package. See README.md.
//
//	bash _hostbench/run.sh -workload reduce-sweep-160 -seed 1 -seconds 20 -trace 0
//	.bench_build/hostbench -compare before.txt after.txt
//	cd _hostbench && go run . -record-goldens
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed the goldens were recorded at.
const defaultSeed = 1

// setupRounds is how many times a run sets its workload up; setup_s is
// the median.
const setupRounds = 3

type metricDef struct{ name, unit string }

// The metrics, in print order; BENCHMARK.json lists the same names.
// Times in the end-to-end metrics are process CPU time (user + system,
// every thread), normalised on the workloads that say so by the reference
// slices of calib.go: on a shared virtual machine the hypervisor's steal
// time moves wall-clock figures by tens of percent from run to run, and
// CPU time excludes it; neighbours' load moves CPU time too, and the
// normalisation cancels it.
var (
	endToEnd = []metricDef{
		{"ops_per_norm_cpu_s", "1/s"},
		{"call_norm_cpu_ms_p50", "ms"},
		{"call_norm_cpu_ms_p90", "ms"},
		{"peak_rss_mb", "MB"},
		{"setup_s", "s"},
	}
	// ungated metrics are printed beside the end-to-end metrics: the
	// raw CPU and wall-clock figures, for reading on a quiet host, and
	// the normalisation factor. They are not in the result or gated.
	ungated = []metricDef{
		{"ops_per_cpu_s", "1/s"},
		{"call_cpu_ms_p50", "ms"},
		{"call_cpu_ms_p90", "ms"},
		{"setup_cpu_s", "s"},
		{"ops_per_s", "1/s"},
		{"call_ms_p50", "ms"},
		{"call_ms_p90", "ms"},
		{"setup_wall_s", "s"},
		{"ref_chase_ms", "ms"},
		{"norm_scale", "ratio"},
	}
	perLayer = func() []metricDef {
		var ds []metricDef
		for _, l := range foldLayers {
			switch l {
			case "runtime.sched", "runtime.gc":
				ds = append(ds, metricDef{l + "_ms_per_op", "ms"})
			default:
				ds = append(ds, metricDef{l + ".cpu_ms_per_op", "ms"})
			}
		}
		ds = append(ds,
			metricDef{"runtime.cpu_per_wall", "ratio"},
			metricDef{"runtime.alloc_mb_per_op", "MB"},
			metricDef{"runtime.gc_cycles_per_op", "count"},
			metricDef{"profile.samples", "count"},
			metricDef{"trace.overhead_pct", "%"},
			metricDef{"trace.call_self_ms", "ms"},
			metricDef{"sim.resume_ns", "ns"},
			metricDef{"sim.event_ns", "ns"},
			metricDef{"core.iter_ms", "ms"},
			metricDef{"core.fixed_ms", "ms"},
		)
		for _, a := range reduceAlgs {
			ds = append(ds, metricDef{"coll." + a.name + ".reduce_ms", "ms"})
		}
		ds = append(ds, metricDef{"mpi.barrier_ms", "ms"}, metricDef{"mpi.world_setup_ms", "ms"})
		for _, k := range []string{"conv", "pool", "relu", "ip"} {
			ds = append(ds, metricDef{"layers." + k + ".fwd_ms", "ms"}, metricDef{"layers." + k + ".bwd_ms", "ms"})
		}
		return append(ds,
			metricDef{"tensor.conv_gflops", "GFLOP/s"},
			metricDef{"tensor.ip_gflops", "GFLOP/s"},
			metricDef{"data.fill_us", "us"},
			metricDef{"core.baseline_run_ms", "ms"},
			metricDef{"fault.faulted_run_ms", "ms"},
			metricDef{"fault.recoveries_per_op", "count"},
		)
	}()
)

// metrics holds measured values by name. A per-layer metric no call of
// the workload reaches keeps the value 0.
type metrics map[string]float64

func (m metrics) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = v
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// meta is printed on the line before the result; the compare mode
// reads it to group results by workload.
type meta struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Op       string  `json:"op"`
	Host     host    `json:"host"`
}

const metaPrefix = "hostbench-meta "

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 10, "host seconds to measure")
	traced := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	compare := fs.Bool("compare", false, "compare two result sets, run from the repository root: -compare A B")
	record := fs.Bool("record-goldens", false, "record every workload's default-seed outputs into goldens.json, run from _hostbench/")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "hostbench: -compare needs two result files")
			return 2
		}
		if err := compareSets(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "hostbench:", err)
			return 1
		}
		return 0
	case *record:
		if err := recordGoldens("goldens.json", stderr); err != nil {
			fmt.Fprintln(stderr, "hostbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "hostbench: need -workload (one of %s), -seconds > 0 and -trace 0 or 1\n", workloadNames())
		return 2
	}
	res, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	m := meta{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *traced, Op: w.op, Host: fingerprint()}
	mj, err := json.Marshal(m)
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	rj, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s%s\n%s\n", metaPrefix, mj, rj)
	return 0
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// timing is what one timed loop over a workload's calls measured.
type timing struct {
	calls  []callTime
	passes int
	ops    int // ops of the calls whose output checked
	wall   time.Duration
}

// callTime is one timed call: its wall time and the process CPU time
// (user + system, every thread) it took.
type callTime struct {
	key           string
	ops           int
	ok            bool
	wallMs, cpuMs float64
}

func (t timing) wallMs() []float64 { return t.field(func(c callTime) float64 { return c.wallMs }) }
func (t timing) cpuMs() []float64  { return t.field(func(c callTime) float64 { return c.cpuMs }) }

func (t timing) field(f func(callTime) float64) []float64 {
	xs := make([]float64, len(t.calls))
	for i, c := range t.calls {
		xs[i] = f(c)
	}
	return xs
}

// rate is throughput in checked ops per second of a typical pass: one
// whose calls each cost their median over the passes, by cost. Per-call
// medians keep bursts of contention from other tenants of the host,
// which hit some calls and not others, from moving the figure.
func (t timing) rate(cost func(callTime) float64) float64 {
	type acc struct {
		costs []float64
		okOps float64
	}
	byKey := map[string]*acc{}
	for _, c := range t.calls {
		a := byKey[c.key]
		if a == nil {
			a = &acc{}
			byKey[c.key] = a
		}
		a.costs = append(a.costs, cost(c))
		if c.ok {
			a.okOps += float64(c.ops)
		}
	}
	var ops, ms float64
	for _, a := range byKey {
		ops += a.okOps / float64(len(a.costs))
		ms += median(a.costs)
	}
	return ops / (ms / 1000)
}

func (t timing) opsPerCPUSec() float64 { return t.rate(func(c callTime) float64 { return c.cpuMs }) }

// runPasses repeats whole passes over calls until budget has elapsed,
// at least once; whole passes keep the mix of calls the same on every
// seed. Only calls whose output checks count their ops. A non-nil cal
// times its reference slices between calls.
func runPasses(calls []call, budget time.Duration, chk *checker, cal *calibrator) timing {
	var t timing
	start := time.Now()
	for t.wall == 0 || t.wall < budget {
		for _, c := range calls {
			cal.between()
			wall, cpu := time.Now(), cpuTime()
			out, err := invoke(c)
			ct := callTime{
				key:    c.key,
				ops:    c.ops,
				wallMs: float64(time.Since(wall)) / float64(time.Millisecond),
				cpuMs:  float64(cpuTime()-cpu) / float64(time.Millisecond),
				ok:     chk.check(c.key, out, err),
			}
			if ct.ok {
				t.ops += c.ops
			}
			t.calls = append(t.calls, ct)
		}
		t.passes++
		t.wall = time.Since(start)
	}
	return t
}

// invoke makes a call, turning a panic into an error so that it counts
// as a failed call.
func invoke(c call) (out string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return c.run()
}

// measure runs a workload: set-up, then either the untraced timed loop
// (end-to-end metrics) or an untraced and a traced half (per-layer
// metrics and the tracing overhead).
func measure(w *workload, seed int64, budget time.Duration, traced bool, stdout, stderr io.Writer) (*result, error) {
	chk, err := newChecker(w, seed, stderr)
	if err != nil {
		return nil, err
	}
	var cal *calibrator
	if !traced {
		if cal, err = newCalibrator(); err != nil {
			return nil, err
		}
		defer cal.close()
	}
	// Set-up builds the inputs from the seed and warms up with one
	// pass, so caches fill and lazy initialisation ends before timing.
	var calls []call
	var setupCPU, setupWall []float64
	for r := 0; r < setupRounds; r++ {
		t, c := time.Now(), cpuTime()
		if calls, err = w.calls(seed); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		runPasses(calls, 0, chk, nil)
		setupCPU = append(setupCPU, (cpuTime() - c).Seconds())
		setupWall = append(setupWall, time.Since(t).Seconds())
	}

	m := metrics{}
	var defs []metricDef
	var plain timing
	steal0 := readSteal()
	if !traced {
		plain = runPasses(calls, budget, chk, cal)
		defs = endToEnd
		s := 1.0
		if w.normalised {
			s = cal.scale()
		}
		m.set("ops_per_norm_cpu_s", plain.opsPerCPUSec()/s)
		m.set("call_norm_cpu_ms_p50", percentile(plain.cpuMs(), 0.5)*s)
		m.set("call_norm_cpu_ms_p90", percentile(plain.cpuMs(), 0.9)*s)
		// The calibrator's region is resident for the whole run.
		m.set("peak_rss_mb", peakRSSMB()-refChaseBytes/(1<<20))
		m.set("setup_s", median(setupCPU)*s)
		m.set("ref_chase_ms", median(cal.chase))
		m.set("norm_scale", s)
		m.set("ops_per_cpu_s", plain.opsPerCPUSec())
		m.set("call_cpu_ms_p50", percentile(plain.cpuMs(), 0.5))
		m.set("call_cpu_ms_p90", percentile(plain.cpuMs(), 0.9))
		m.set("setup_cpu_s", median(setupCPU))
		m.set("ops_per_s", plain.rate(func(c callTime) float64 { return c.wallMs }))
		m.set("call_ms_p50", percentile(plain.wallMs(), 0.5))
		m.set("call_ms_p90", percentile(plain.wallMs(), 0.9))
		m.set("setup_wall_s", median(setupWall))
	} else {
		defs = perLayer
		for _, d := range defs {
			m[d.name] = 0
		}
		if plain, err = measureTraced(w, seed, budget, calls, chk, m); err != nil {
			return nil, err
		}
	}

	res := &result{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   map[string]metricValue{},
	}
	fmt.Fprintf(stdout, "hostbench %s seed=%d seconds=%g trace=%v (op: %s)\n", w.name, seed, budget.Seconds(), traced, w.op)
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	if !traced {
		defs = append(defs[:len(defs):len(defs)], ungated...)
	}
	for _, d := range defs {
		note := ""
		switch d.name {
		case "call_norm_cpu_ms_p50", "call_norm_cpu_ms_p90", "call_cpu_ms_p50", "call_cpu_ms_p90", "call_ms_p50", "call_ms_p90":
			note = fmt.Sprintf("  (%d timed calls)", len(plain.calls))
		case "setup_s", "setup_cpu_s", "setup_wall_s":
			note = fmt.Sprintf("  (median of %d)", setupRounds)
		case "ops_per_cpu_s":
			note = "  (raw CPU time; not gated)"
		case "ops_per_s":
			note = "  (wall clock; not gated)"
		case "ref_chase_ms":
			note = fmt.Sprintf("  (median of %d reference slices)", len(cal.chase))
		case "norm_scale":
			if !w.normalised {
				note = "  (this workload's times are not normalised)"
			}
		}
		fmt.Fprintf(stdout, "  %-28s %14.6g %-8s%s\n", d.name, m[d.name], d.unit, note)
	}
	fmt.Fprintf(stdout, "  %-28s %14d %-8s  (timed passes over the workload's calls)\n", "passes", plain.passes, "count")
	fmt.Fprintf(stdout, "  %-28s %14.6g %-8s  (%d of %d calls failed)\n", "failed_ratio",
		float64(chk.failed)/float64(chk.attempted), "ratio", chk.failed, chk.attempted)
	fmt.Fprintf(stdout, "  %-28s %14.6g %-8s  (CPU time the hypervisor gave to others while timing)\n", "host_steal_pct",
		readSteal().since(steal0), "%")
	return res, nil
}

// measureTraced spends half the budget on untraced passes and half on
// traced passes under a CPU profile, and fills the per-layer metrics.
func measureTraced(w *workload, seed int64, budget time.Duration, calls []call, chk *checker, m metrics) (timing, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	plain := runPasses(calls, budget/2, chk, nil)
	cpu1 := cpuTime()
	runtime.ReadMemStats(&ms1)
	ops := float64(plain.ops)
	m.set("runtime.cpu_per_wall", (cpu1-cpu0).Seconds()/plain.wall.Seconds())
	m.set("runtime.alloc_mb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20)/ops)
	m.set("runtime.gc_cycles_per_op", float64(ms1.NumGC-ms0.NumGC)/ops)

	tr := newTracer()
	tcalls, err := w.traced(seed, tr)
	if err != nil {
		return plain, fmt.Errorf("%s traced set-up: %w", w.name, err)
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return plain, fmt.Errorf("cpu profile: %w", err)
	}
	tp := runPasses(tcalls, budget/2, chk, nil)
	pprof.StopCPUProfile()
	m.set("trace.overhead_pct", (plain.opsPerCPUSec()/tp.opsPerCPUSec()-1)*100)

	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return plain, err
	}
	byLayer, _ := fold(p)
	for _, l := range foldLayers {
		name := l + ".cpu_ms_per_op"
		if l == "runtime.sched" || l == "runtime.gc" {
			name = l + "_ms_per_op"
		}
		m.set(name, float64(byLayer[l])/1e6/float64(tp.ops))
	}
	m.set("profile.samples", float64(len(p.samples)))

	spans := tr.snapshot()
	self := selfTimes(spans)
	var callSelf []float64
	for _, s := range spans {
		if s.parent == 0 {
			callSelf = append(callSelf, float64(self[s.id])/float64(time.Millisecond))
		}
	}
	var sum float64
	for _, v := range callSelf {
		sum += v
	}
	m.set("trace.call_self_ms", sum/float64(len(callSelf)))
	w.spanMetrics(spans, m)

	resume, event, err := simDrive()
	if err != nil {
		return plain, err
	}
	m.set("sim.resume_ns", resume)
	m.set("sim.event_ns", event)
	return plain, nil
}

// cpuStat is the machine-wide CPU time split from /proc/stat, in ticks.
type cpuStat struct{ steal, total uint64 }

func readSteal() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// cpu user nice system idle iowait irq softirq steal ...
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	for i, x := range f[1:9] {
		v, _ := strconv.ParseUint(x, 10, 64)
		st.total += v
		if i == 7 {
			st.steal = v
		}
	}
	return st
}

// since is the share of CPU time stolen between s0 and s, in percent.
func (s cpuStat) since(s0 cpuStat) float64 {
	if s.total <= s0.total {
		return 0
	}
	return 100 * float64(s.steal-s0.steal) / float64(s.total-s0.total)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
