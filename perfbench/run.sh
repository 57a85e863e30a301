#!/usr/bin/env bash
# Builds genlinkd and the benchmark from this checkout, then runs the
# benchmark with the given arguments, from the checkout's root:
#
#   bash perfbench/run.sh --workload match --seed 1 --seconds 10 --trace 0
#
# Everything built or written lands in .bench_build/ (the Go build cache
# included), so a run reads and writes only inside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod
go build -o "$out/bin/genlinkd" ./cmd/genlinkd
(cd perfbench/_bench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --genlinkd "$out/bin/genlinkd" --bench-dir perfbench "$@"
