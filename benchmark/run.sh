#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json names this
# script as the benchmark's command.
#
#   benchmark/run.sh                       all four workloads, untraced (~110 s)
#   benchmark/run.sh --trace 1             all four, traced: per-layer metrics + span file (~2 min)
#   benchmark/run.sh --workload mix --seed 3 --seconds 20 --trace 0
#   benchmark/run.sh --aa 20               repeatability study (prints SPREAD.md)
#
# Everything the build writes stays under one directory of the checkout
# (CARGO_TARGET_DIR when the caller sets it, .bench_build otherwise): the
# Go build cache, its temporary files, and the binary.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local

(cd benchmark && go build -o "$build/nsqlbench" .)
exec "$build/nsqlbench" "$@"
