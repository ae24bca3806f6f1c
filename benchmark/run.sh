#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from the
# checkout's sources and runs it with the driver's arguments
# (--workload <name> --seed <n> --seconds <s> --trace <0|1>).
# Run it from the root of a checkout. Everything it writes — the Go build
# cache, the binary, the span files — stays under .bench_build/ there.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/mpi ]; then
	echo "benchmark/run.sh: no program to measure here (run from the root of a checkout)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod

go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
