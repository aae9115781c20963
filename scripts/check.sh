#!/bin/sh
# check.sh — the repository's pre-merge gate: formatting, vet,
# scaffe-lint, build, and the full test suite under the race detector.
# Run from anywhere; it always operates on the repository root.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt -s needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== scaffe-lint =="
# The repo-specific static gate (determinism, hot-path allocation, MPI
# request discipline, trace-span balance); cheap, so it runs before the
# race-instrumented test phase. See internal/lint and DESIGN.md §10.
go run ./cmd/scaffe-lint ./...

echo "== scaffe-lint -escape =="
# The compiler-verified escape gate (DESIGN.md §15): go build
# -gcflags=-m=1 over the propagated-hotpath packages, diffed against
# the checked-in lint.baseline. A new heap escape in a hot function —
# or a stale baseline entry — fails here, with the annotated root
# named; regenerate the file with
#   go run ./cmd/scaffe-lint -escape -write-baseline
# after auditing the diff. Unrecognized compiler output fails loudly
# rather than silently disabling the gate.
go run ./cmd/scaffe-lint -escape ./...

echo "== go build =="
go build ./...

echo "== event-kernel zero-alloc gate =="
# The pooled event kernel must not allocate in steady state (DESIGN.md
# §12). Run un-instrumented first, since race instrumentation itself
# allocates and would mask a regression.
go test -run '^TestSimKernelZeroAllocSteadyState$' -count=1 ./internal/sim

echo "== elastic churn drill =="
# The elastic membership acceptance bar (DESIGN.md §14): the 32-rank
# crash→recover→join run must produce an identical fault report and
# total time at every GOMAXPROCS, and the catch-up replay must be
# bit-exact against a golden run. Race-instrumented so the detector
# watches the join desk and catch-up collectives under real
# parallelism.
for procs in 1 4 16; do
    GOMAXPROCS=$procs go test -race -timeout 20m \
        -run '^TestGoogLeNet32CrashRecoverJoinDeterministic$|^TestRealJoinAfterCrashBitExact$|^TestJoinUnderFire$' \
        -count=1 ./internal/core
done

echo "== chaos smoke =="
# The seeded chaos plane (DESIGN.md §16): 25 randomized fault
# schedules — crash/hang/straggle/join plus the lossy-wire family —
# must terminate finished-or-unrecovered with schedule-consistent
# counters at every GOMAXPROCS, race-instrumented so the detector
# watches the wire perturbation hooks and the quorum/fencing paths.
# The full 200-spec gate (TestChaosGate) runs in the suite below.
for procs in 1 4 16; do
    GOMAXPROCS=$procs go test -race -run '^TestChaosSmoke$' \
        -count=1 ./internal/chaos
done

echo "== go test -race =="
# Race instrumentation slows the simulator ~10x; the core package needs
# more than the default 10-minute per-package budget.
go test -race -timeout 45m ./...

echo "== fuzz smoke =="
# A few seconds per target keeps the parsers honest without turning the
# gate into a fuzzing campaign; run longer sessions by hand with
# -fuzztime as needed.
go test -run '^$' -fuzz FuzzSnapshotDecode -fuzztime 5s ./internal/core
go test -run '^$' -fuzz FuzzParse -fuzztime 5s ./internal/proto
go test -run '^$' -fuzz FuzzChunkChecksum -fuzztime 5s ./internal/mpi
go test -run '^$' -fuzz FuzzParseSchedule -fuzztime 5s ./internal/fault

echo "== OK =="
