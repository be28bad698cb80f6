#!/bin/bash
# The acceptance driver's entry point: build the benchmark inside the
# checkout (build cache included, so nothing is written outside it) and run
# it with the driver's arguments:
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run from the repository root. It fails, printing no result, where the
# program's sources are missing.
set -eu

if [ ! -f go.mod ] || [ ! -d internal/hv ] || [ ! -f BENCHMARK.json ]; then
	echo "benchmark/run.sh: run from the root of a checkout of the repository (go.mod, internal/, BENCHMARK.json)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
# Everything the toolchain writes (build cache, scratch files, its own
# usage counters) stays under the build directory.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOWORK=off GOTOOLCHAIN=local GOENV=off

go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
