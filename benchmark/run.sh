#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source into
# .bench_build/ (Go build cache included, so nothing is written outside the
# checkout) and runs it from the checkout root with the caller's flags.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOPROXY=off GOTOOLCHAIN=local
go build -C benchmark -o "$root/.bench_build/benchmark" .
exec "$root/.bench_build/benchmark" "$@"
