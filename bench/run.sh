#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the harness from source into
# .bench_build/ (inside the checkout, Go build cache included, so nothing is
# read or written outside it) and exec it with the caller's flags. Run from
# the repository root:  bash bench/run.sh -workload elephants -seed 1
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/mlccbench" .
exec "$build/mlccbench" "$@"
