package core

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"scaffe/internal/fault"
	"scaffe/internal/models"
	"scaffe/internal/trace"
)

// Trace identity across host parallelism: every workload below runs at
// GOMAXPROCS 1, 4, and 16, and the runs must be indistinguishable. The
// goldens pin totals and losses; this pins the rest of the observable
// output at byte level: identical Chrome-trace serializations (every
// span of every rank, in order), identical virtual end times, identical
// per-iteration losses, and identical fault/integrity reports. Real-mode
// workloads also exercise the tensor kernels, whose worker fan-out
// follows GOMAXPROCS.

// runTraced runs cfg with a fresh trace recorder attached at the given
// GOMAXPROCS and returns the result plus the serialized trace.
func runTraced(t *testing.T, cfg Config, procs int) (*Result, []byte) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	cfg.Trace = trace.New()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
	}
	var buf bytes.Buffer
	if err := cfg.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("GOMAXPROCS=%d: trace serialization: %v", procs, err)
	}
	return res, buf.Bytes()
}

func diffRuns(t *testing.T, name string, mk func() Config) {
	t.Helper()
	ref, refTrace := runTraced(t, mk(), 1)
	for _, procs := range []int{4, 16} {
		got, gotTrace := runTraced(t, mk(), procs)
		if got.TotalTime != ref.TotalTime {
			t.Errorf("%s @GOMAXPROCS=%d: total %d, GOMAXPROCS=1 gave %d", name, procs, got.TotalTime, ref.TotalTime)
		}
		if len(got.Losses) != len(ref.Losses) {
			t.Fatalf("%s @GOMAXPROCS=%d: %d losses vs %d", name, procs, len(got.Losses), len(ref.Losses))
		}
		for i := range got.Losses {
			if got.Losses[i] != ref.Losses[i] {
				t.Errorf("%s @GOMAXPROCS=%d: loss[%d] %v vs %v", name, procs, i, got.Losses[i], ref.Losses[i])
			}
		}
		if !bytes.Equal(gotTrace, refTrace) {
			t.Errorf("%s @GOMAXPROCS=%d: traces differ (%d vs %d bytes)", name, procs, len(gotTrace), len(refTrace))
		}
		if (got.Fault == nil) != (ref.Fault == nil) ||
			ref.Fault != nil && got.Fault.String() != ref.Fault.String() {
			t.Errorf("%s @GOMAXPROCS=%d: fault reports differ: %v vs %v", name, procs, got.Fault, ref.Fault)
		}
		if (got.Integrity == nil) != (ref.Integrity == nil) ||
			ref.Integrity != nil && *got.Integrity != *ref.Integrity {
			t.Errorf("%s @GOMAXPROCS=%d: integrity reports differ: %+v vs %+v", name, procs, got.Integrity, ref.Integrity)
		}
	}
}

// TestTraceIdentityGoldenWorkloads replays every golden-trace workload
// at each GOMAXPROCS.
func TestTraceIdentityGoldenWorkloads(t *testing.T) {
	spec, err := models.ByName("cifar10-quick")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mk   func() Config
	}{
		{"scb4-real", func() Config { return goldenRealConfig(4, SCB) }},
		{"scob4-real", func() Config { return goldenRealConfig(4, SCOB) }},
		{"scobr4-real", func() Config { return goldenRealConfig(4, SCOBR) }},
		{"scb8-real", func() Config { return goldenRealConfig(8, SCB) }},
		{"scob8-real", func() Config { return goldenRealConfig(8, SCOB) }},
		{"scobr8-real", func() Config { return goldenRealConfig(8, SCOBR) }},
		{"scb8-timing", func() Config { return timingConfig(spec, 8, 64, 3) }},
		{"scob8-timing", func() Config {
			cfg := timingConfig(spec, 8, 64, 3)
			cfg.Design = SCOB
			return cfg
		}},
		{"scobrf8-timing", func() Config {
			cfg := timingConfig(spec, 8, 64, 3)
			cfg.Design = SCOBRF
			return cfg
		}},
		{"cntk8-timing", func() Config {
			cfg := timingConfig(spec, 8, 64, 3)
			cfg.Design = CNTKLike
			return cfg
		}},
		{"lmdb16-scobr", func() Config {
			cfg := timingConfig(spec, 16, 128, 3)
			cfg.Design = SCOBR
			cfg.Source = LMDBSource
			return cfg
		}},
	}
	for _, tc := range cases {
		// The real-data replays train on 4096 samples at every
		// GOMAXPROCS point; keep quick runs quick.
		if testing.Short() && strings.HasSuffix(tc.name, "-real") {
			continue
		}
		diffRuns(t, tc.name, tc.mk)
	}
}

// TestTraceIdentityFaultDrill replays a mid-run crash with elastic
// recovery at each GOMAXPROCS.
func TestTraceIdentityFaultDrill(t *testing.T) {
	spec, err := models.ByName("cifar10-quick")
	if err != nil {
		t.Fatal(err)
	}
	base := timingConfig(spec, 8, 64, 8)
	base.Design = SCOB
	mid := midRun(t, base, 0.5)
	diffRuns(t, "crash-recover", func() Config {
		cfg := timingConfig(spec, 8, 64, 8)
		cfg.Design = SCOB
		cfg.Faults = fault.Schedule{{At: mid, Kind: fault.Crash, Rank: 3}}
		return cfg
	})
}

// TestTraceIdentitySDCDrill replays a wire-corruption drill with the
// integrity plane in recover mode at each GOMAXPROCS.
func TestTraceIdentitySDCDrill(t *testing.T) {
	diffRuns(t, "sdc-recover", func() Config {
		cfg := tinyRealConfig(4, 32, 6)
		cfg.Integrity = IntegrityRecover
		cfg.Faults = fault.Schedule{{Kind: fault.CorruptWire, Src: 0, Dst: 1, N: 1}}
		return cfg
	})
}
