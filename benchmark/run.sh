#!/usr/bin/env bash
# run.sh — the benchmark's one command (BENCHMARK.json "command"). It builds
# pstore-bench from source into .bench_build/ at the repository root, keeping
# the Go build cache, module cache and temp files inside the checkout too,
# and runs it with the arguments given:
#
#   bash benchmark/run.sh --workload cart_write --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh -workload all -seed 1 -out benchmark/out/set1.json
#   bash benchmark/run.sh -compare set1.json set2.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/pstore-bench" ./cmd/pstore-bench)
exec "$build/pstore-bench" -root "$root" "$@"
