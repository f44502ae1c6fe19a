#!/usr/bin/env bash
# Entry point for the benchmark driver (BENCHMARK.json "command"): builds the
# harness from the checkout's source and runs it from the checkout root.
# Everything the Go toolchain writes — build cache, temporary files, the
# binaries — stays inside the checkout, under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$here" && go build -o "$build/bin/benchmark" .)
cd "$root"
exec "$build/bin/benchmark" "$@"
