#!/usr/bin/env bash
# Builds the host-cost benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash hostbench/run.sh --workload round-heavy --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay inside .bench_build/ at the
# root, so the benchmark reads and writes only inside its checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export CGO_ENABLED=0
go -C hostbench build -o "$out/hostbench" .
exec "$out/hostbench" "$@"
