#!/usr/bin/env bash
# The command BENCHMARK.json names. Run from the root of a checkout, it
# builds the benchmark from source and runs it with the arguments given:
#
#   bash benchmarks/host/run.sh --workload sort --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout: the Go build cache, temporary files and the binary.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off

go build -C "$here" -o "$build/hostbench" .
exec "$build/hostbench" "$@"
