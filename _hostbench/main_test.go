package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A wrong golden, a failing call and a panicking call each count as a
// failed call; none stops the run.
func TestCheckerCountsFailures(t *testing.T) {
	var log bytes.Buffer
	chk := &checker{want: map[string]string{"ok": "1", "wrong": "not-2", "err": "3", "panic": "4"}, fixed: true, log: &log}
	calls := []call{
		{key: "ok", ops: 1, run: func() (string, error) { return "1", nil }},
		{key: "wrong", ops: 10, run: func() (string, error) { return "2", nil }},
		{key: "err", ops: 100, run: func() (string, error) { return "", errors.New("boom") }},
		{key: "panic", ops: 1000, run: func() (string, error) { panic("bad state") }},
		{key: "unknown", ops: 10000, run: func() (string, error) { return "5", nil }},
	}
	p := runPasses(calls, 0, chk, nil)
	if chk.attempted != 5 || chk.failed != 4 || p.ops != 1 || len(p.calls) != 5 {
		t.Fatalf("attempted %d failed %d ops %d calls %d; want 5, 4, 1, 5", chk.attempted, chk.failed, p.ops, len(p.calls))
	}
	for _, want := range []string{`call wrong: output "2", want "not-2"`, "boom", "panic: bad state", "call unknown: no golden"} {
		if !strings.Contains(log.String(), want) {
			t.Errorf("log lacks %q:\n%s", want, log.String())
		}
	}
}

// rate prices a pass at each call's median cost and counts only the
// ops of calls whose output checked.
func TestRate(t *testing.T) {
	tm := timing{calls: []callTime{
		{key: "a", ops: 1, ok: true, cpuMs: 10},
		{key: "b", ops: 2, ok: true, cpuMs: 20},
		{key: "a", ops: 1, ok: true, cpuMs: 1000}, // a burst of contention
		{key: "b", ops: 2, ok: false, cpuMs: 30},
		{key: "a", ops: 1, ok: true, cpuMs: 10},
		{key: "b", ops: 2, ok: true, cpuMs: 25},
	}}
	// A pass costs 10 + 25 ms and checks 1 + 2*2/3 ops.
	want := (1 + 2*2.0/3) / 0.035
	if got := tm.opsPerCPUSec(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("opsPerCPUSec = %g, want %g", got, want)
	}
}

// Without goldens (a non-default seed) the first output of each key is
// the reference, so a call that stops repeating bit-identically fails.
func TestCheckerRepeatRule(t *testing.T) {
	chk := &checker{want: map[string]string{}, log: &bytes.Buffer{}}
	n := 0
	calls := []call{{key: "k", ops: 1, run: func() (string, error) {
		n++
		if n == 3 {
			return "drifted", nil
		}
		return "same", nil
	}}}
	for i := 0; i < 4; i++ {
		runPasses(calls, 0, chk, nil)
	}
	if chk.attempted != 4 || chk.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 4 and 1", chk.attempted, chk.failed)
	}
}

// Every call a default-seed run can make has a golden.
func TestGoldensCoverEveryCall(t *testing.T) {
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		plain, err := w.calls(defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := w.traced(defaultSeed, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range append(plain, traced...) {
			if _, ok := g[w.name][c.key]; !ok {
				t.Errorf("%s: no golden for call %s", w.name, c.key)
			}
		}
	}
}

// BENCHMARK.json names exactly the metrics the benchmark prints.
func TestBenchmarkDefinitionMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd)
	check("per_layer", def.PerLayer, perLayer)
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(def.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if def.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, def.Workloads[i].Name, w.name)
		}
	}
}

// Bad arguments fail without printing a result.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such-workload"},
		{"-workload", "chaos-16", "-seconds", "0"},
		{"-workload", "chaos-16", "-trace", "2"},
		{"-compare", "only-one-file"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q; want a non-zero code and no output", args, code, out.String())
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		b      []float64
		better string
		want   string
	}{
		{scale(1.01), "lower", "same"},
		{scale(1.20), "lower", "REGRESSED"},
		{scale(1.20), "higher", "improved"},
		{scale(0.80), "higher", "REGRESSED"},
		{[]float64{50, 150, 60, 140, 100, 100, 55, 145, 100, 100}, "lower", "unresolved"},
	}
	for _, c := range cases {
		if got := verdict(base, c.b, c.better, 0.1); !strings.Contains(got, c.want) {
			t.Errorf("verdict(%v, %s) = %q, want %s", c.b, c.better, got, c.want)
		}
	}
	if got := verdict(base, scale(2), "", 0); got != "+100.0%" {
		t.Errorf("unbounded verdict = %q, want the change only", got)
	}
}

func TestCompareSets(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops ...float64) string {
		var b strings.Builder
		for i, v := range ops {
			b.WriteString("some human-readable line\n")
			m, _ := json.Marshal(meta{Workload: "chaos-16", Seed: int64(i)})
			r, _ := json.Marshal(result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"ops_per_s": {v, "1/s"}}})
			b.WriteString(metaPrefix + string(m) + "\n" + string(r) + "\n")
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := write("a.txt", 10, 10.1, 9.9, 10, 10.2)
	b := write("b.txt", 5, 5.1, 4.9, 5, 5.2)
	def := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(def, []byte(`{"end_to_end":[{"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := compareSets(&out, def, a, b); err != nil {
		t.Fatal(err)
	}
	if s := out.String(); !strings.Contains(s, "chaos-16") || !strings.Contains(s, "REGRESSED") || !strings.Contains(s, "10 [") {
		t.Fatalf("compare output:\n%s", s)
	}
}
