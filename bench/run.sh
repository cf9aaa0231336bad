#!/usr/bin/env bash
# The command BENCHMARK.json names: builds the harness from source inside
# the checkout (build cache and temporaries under .bench_build/, so
# nothing is written outside it) and runs it from the checkout's root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bcbpt-bench" .)
cd "$root"
exec "$build/bcbpt-bench" -out bench/out "$@"
