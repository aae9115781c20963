#!/usr/bin/env bash
# Builds the host-time benchmark from the sources in the current
# directory, which must be the repository root, and runs it with the
# given arguments, e.g.
#
#   bash _hostbench/run.sh --workload chaos-16 --seed 1 --seconds 20 --trace 0
#
# The binary and every Go cache it needs live under .bench_build/, so a
# run reads and writes nothing outside the checkout.
set -eu

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=

# Build errors go to stderr; nothing reaches stdout unless the build works.
(cd _hostbench && go build -o "$out/hostbench" .) >&2
exec "$out/hostbench" "$@"
