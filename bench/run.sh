#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): build the benchmark
# from source inside the checkout, then run it with the driver's flags
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything Go writes — build cache, temporary files, the binary — and
# everything the benchmark writes stays under .bench_build in the
# checkout, which .gitignore names. The first build in a checkout
# compiles the standard library too; later runs reuse the cache.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/ffdl-bench" ./bench
exec "$build/ffdl-bench" -out "$build/out" "$@"
