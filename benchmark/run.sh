#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout: bash benchmark/run.sh --workload robust_noisy --seed 1 --seconds 20 --trace 0
#
# Everything the build writes — Go's build cache and the binary — goes to
# .bench_build in the checkout, so a run touches nothing outside it. The
# first build in a checkout compiles the standard library into that cache
# (about a minute on two cores); later ones take about a second.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
