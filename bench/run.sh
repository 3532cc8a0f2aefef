#!/usr/bin/env bash
# BENCHMARK.json's command: builds the benchmark from source and runs it
# with the arguments given, keeping everything the Go toolchain writes
# (build cache, temporary files) inside the checkout. Run it from the
# repository root. For everyday use `go run ./bench` does the same with
# the user's own build cache.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d bench ]; then
	echo "bench/run.sh: run from the root of a checkout of the repository (no go.mod here)" >&2
	exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOTELEMETRY=off

go build -o "$build/bin/rcbench" ./bench
exec "$build/bin/rcbench" "$@"
