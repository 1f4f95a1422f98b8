#!/usr/bin/env bash
# bench.sh — run the hot-path microbenchmarks with allocation accounting
# and record the results as BENCH_hotpath.json next to this script's repo
# root, plus BENCH_chaos.json for the fault-injected request path. These
# are the benchmarks the wire-protocol/batching work is judged by;
# BenchmarkServerPing must stay allocation-free.
# BenchmarkServerCallChaos prices the robustness layer: closed-loop
# throughput/latency with 1% of response writes dropped and the client's
# deadline+retry machinery absorbing the loss. BENCH_migration.json records
# BenchmarkMigrationStall: the p99 foreground stall and the end-to-end time
# of a live pre-copy bucket move. BenchmarkLargeTable records the
# GC story the arena layout is judged by — max-gc-pause-ns and heap-objects
# at 1M and 10M resident rows — into BENCH_hotpath.json alongside the
# hot-path numbers. A regression gate then re-measures BenchmarkServerCall
# at a fixed iteration count and fails the script if it came out >25%
# slower than the number recorded in the checked-in BENCH_hotpath.json.
#
# Usage: scripts/bench.sh [benchtime]   (default 2s; CI smoke uses 1x)
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${1:-2s}"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

# Convert `go test -bench` output on stdin into a JSON array:
#   BenchmarkServerCall-8  100  12345 ns/op  819 B/op  9 allocs/op
bench_to_json() {
  awk '
    BEGIN { print "[" ; first = 1 }
    /^Benchmark/ {
      name = $1; iters = $2; ns = $3
      bytes = "null"; allocs = "null"; retries = "null"; drops = "null"
      p99stall = "null"; movens = "null"; gcpause = "null"; heapobjs = "null"
      for (i = 4; i <= NF; i++) {
        if ($i == "B/op")            bytes    = $(i-1)
        if ($i == "allocs/op")       allocs   = $(i-1)
        if ($i == "retries")         retries  = $(i-1)
        if ($i == "drops")           drops    = $(i-1)
        if ($i == "p99stall_ns")     p99stall = $(i-1)
        if ($i == "move_ns")         movens   = $(i-1)
        if ($i == "max-gc-pause-ns") gcpause  = $(i-1)
        if ($i == "heap-objects")    heapobjs = $(i-1)
      }
      if (!first) print ","
      first = 0
      printf "  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", name, iters, ns, bytes, allocs
      if (retries != "null") printf ", \"retries\": %s, \"drops\": %s", retries, drops
      if (p99stall != "null") printf ", \"p99_stall_ns\": %s", p99stall
      if (movens != "null") printf ", \"move_ns\": %s", movens
      if (gcpause != "null") printf ", \"max_gc_pause_ns\": %s", gcpause
      if (heapobjs != "null") printf ", \"heap_objects\": %s", heapobjs
      printf "}"
    }
    END { print "\n]" }
  '
}

# Regression gate: remember the checked-in BenchmarkServerCall number before
# this run overwrites it. The gate re-measures at a fixed iteration count
# (stable even when the smoke run passes "1x") and fails the script if the
# hot path got more than 25% slower than the recorded baseline.
OLD_CALL_NS=""
if [ -f BENCH_hotpath.json ]; then
  OLD_CALL_NS="$(sed -n 's/.*"name": "BenchmarkServerCall[-0-9]*".*"ns_per_op": \([0-9.]*\).*/\1/p' BENCH_hotpath.json | head -1)"
fi

go test ./internal/server/ ./internal/hashing/ ./internal/durability/ ./internal/storage/ \
  -run 'xxx' -bench 'BenchmarkServerCall$|BenchmarkServerPing|BenchmarkMurmur2|BenchmarkDurabilityOverhead|BenchmarkLargeTable' \
  -benchmem -benchtime "$BENCHTIME" -count 1 | tee "$TMP"
bench_to_json < "$TMP" > BENCH_hotpath.json

# gate LABEL OLD NEW fails when NEW ns/op is more than 25% above the
# recorded OLD, and when a baseline was recorded but no new number was
# parsed: a missing measurement is a failure, not a pass.
gate() {
  local label="$1" old="$2" new="$3"
  [ -n "$old" ] || return 0
  if [ -z "$new" ]; then
    echo "bench gate: $label: no new measurement parsed (recorded $old ns/op)" >&2
    return 1
  fi
  awk -v old="$old" -v new="$new" -v label="$label" 'BEGIN {
    if (old + 0 > 0 && new + 0 > old * 1.25) {
      printf "bench gate: %s regressed: %s ns/op vs recorded %s ns/op (limit +25%%)\n", label, new, old
      exit 1
    }
    printf "bench gate: %s %s ns/op vs recorded %s ns/op (limit +25%%): ok\n", label, new, old
  }'
}

if [ -n "$OLD_CALL_NS" ]; then
  go test ./internal/server/ -run 'xxx' -bench 'BenchmarkServerCall$' \
    -benchtime 5000x -count 1 | tee "$TMP"
  NEW_CALL_NS="$(awk '$1 ~ /^BenchmarkServerCall(-[0-9]+)?$/ { print $3; exit }' "$TMP")"
  gate "BenchmarkServerCall" "$OLD_CALL_NS" "$NEW_CALL_NS"
fi

go test ./internal/server/ \
  -run 'xxx' -bench 'BenchmarkServerCallChaos' \
  -benchmem -benchtime "$BENCHTIME" -count 1 | tee "$TMP"
bench_to_json < "$TMP" > BENCH_chaos.json

# Replication: BenchmarkReplicatedCall prices k-safety on the write path
# (k=0 vs k=1 — the k=1 run ships every command to a synchronous standby and
# waits for its ack); BenchmarkReplicaRead is session-consistent read
# throughput served from standbys. Acceptance: k=1 write overhead stays
# small relative to the k=0 protocol round trip. The checked-in k=1 and
# k=1/durable numbers are baselines for a regression gate below, mirroring
# the BenchmarkServerCall gate: the batched replication pipeline must not
# quietly lose its amortization.
OLD_K1_NS=""
OLD_K1D_NS=""
if [ -f BENCH_replication.json ]; then
  OLD_K1_NS="$(sed -n 's/.*"name": "BenchmarkReplicatedCall\/k=1[-0-9]*".*"ns_per_op": \([0-9.]*\).*/\1/p' BENCH_replication.json | head -1)"
  OLD_K1D_NS="$(sed -n 's/.*"name": "BenchmarkReplicatedCall\/k=1\/durable[-0-9]*".*"ns_per_op": \([0-9.]*\).*/\1/p' BENCH_replication.json | head -1)"
fi

go test ./internal/server/ \
  -run 'xxx' -bench 'BenchmarkReplicatedCall|BenchmarkReplicaRead' \
  -benchmem -benchtime "$BENCHTIME" -count 1 | tee "$TMP"
bench_to_json < "$TMP" > BENCH_replication.json

if [ -n "$OLD_K1_NS" ] || [ -n "$OLD_K1D_NS" ]; then
  go test ./internal/server/ -run 'xxx' -bench 'BenchmarkReplicatedCall/k=1' \
    -benchtime 5000x -count 1 | tee "$TMP"
  NEW_K1_NS="$(awk '$1 ~ /^BenchmarkReplicatedCall\/k=1(-[0-9]+)?$/ { print $3; exit }' "$TMP")"
  NEW_K1D_NS="$(awk '$1 ~ /^BenchmarkReplicatedCall\/k=1\/durable(-[0-9]+)?$/ { print $3; exit }' "$TMP")"
  gate "BenchmarkReplicatedCall/k=1" "$OLD_K1_NS" "$NEW_K1_NS"
  gate "BenchmarkReplicatedCall/k=1/durable" "$OLD_K1D_NS" "$NEW_K1D_NS"
fi

# Live-migration stall: p99 foreground latency while a hot bucket moves
# through the pre-copy/delta-drain protocol. Each iteration is one full
# bucket move (~60-80ms), so cap benchtime at 10x.
MIG_BENCHTIME="$BENCHTIME"
case "$MIG_BENCHTIME" in
  *s) MIG_BENCHTIME="10x" ;;
esac
go test ./internal/migration/ \
  -run 'xxx' -bench 'BenchmarkMigrationStall' \
  -benchtime "$MIG_BENCHTIME" -count 1 | tee "$TMP"
bench_to_json < "$TMP" > BENCH_migration.json

echo "wrote BENCH_hotpath.json:"
cat BENCH_hotpath.json
echo "wrote BENCH_chaos.json:"
cat BENCH_chaos.json
echo "wrote BENCH_migration.json:"
cat BENCH_migration.json
echo "wrote BENCH_replication.json:"
cat BENCH_replication.json
