#!/usr/bin/env bash
# alloc-gate.sh — allocation-regression gate for the streamed verification
# hot path, seeded share expansion and the client submission path.
#
# Runs the gate benchmarks with -benchmem and asserts:
#   - BenchmarkRoundMarshal: exactly 0 allocs/op. The leader builds round
#     requests in pooled arenas; any allocation here is a pooling regression.
#   - BenchmarkStreamedRounds/Streamed: at most 2500 allocs/op end-to-end
#     (one submission through a 4-shard pipeline over latency-injected TCP,
#     measured steady-state after warm-up). The ceiling is pinned ~4x above
#     the current figure, so it only trips on a structural regression, not
#     benchmark noise.
#   - BenchmarkShareExpand/L=1024: at most 10 allocs/op. Seed expansion
#     decodes F64 elements in place from bulk keystream reads, so its
#     allocations are a constant handful (output vector, PRG, AES cipher,
#     CTR stream, keystream chunk = 5), independent of L.
#     The ceiling is pinned at 2x that; a per-element allocation on the
#     expansion path would cost over 1000 here. It runs 1000 iterations so
#     that a stray runtime allocation during a single one cannot trip it.
#   - BenchmarkBuildSubmission/bits1024: at most 254 allocs/op, 2x the
#     measured 127. A client submission (prove, split, seal to three
#     servers) allocates per vector and per bundle, never per element; a
#     per-element allocation would cost over 1000 here. It runs 100
#     iterations, for the same reason as the expansion gate.
#
# Runs locally (./scripts/alloc-gate.sh) and in the CI bench job.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="$(mktemp)"
trap 'rm -f "${OUT}"' EXIT

echo "== alloc gate: BenchmarkRoundMarshal (0 allocs/op)"
go test -run '^$' -bench '^BenchmarkRoundMarshal$' -benchmem -benchtime=1x \
  ./internal/core/ | tee "${OUT}"
echo "== alloc gate: BenchmarkStreamedRounds/Streamed (<= 2500 allocs/op)"
go test -run '^$' -bench '^BenchmarkStreamedRounds/Streamed$' -benchmem -benchtime=1x \
  . | tee -a "${OUT}"
echo "== alloc gate: BenchmarkShareExpand/L=1024 (<= 10 allocs/op)"
go test -run '^$' -bench '^BenchmarkShareExpand/L=1024$' -benchmem -benchtime=1000x \
  . | tee -a "${OUT}"
echo "== alloc gate: BenchmarkBuildSubmission/bits1024 (<= 254 allocs/op)"
go test -run '^$' -bench '^BenchmarkBuildSubmission/bits1024$' -benchmem -benchtime=100x \
  . | tee -a "${OUT}"

awk -v ceiling=2500 -v expand_ceiling=10 -v build_ceiling=254 '
/^BenchmarkRoundMarshal/ {
  seen_rm = 1
  for (i = 1; i <= NF; i++) if ($i == "allocs/op") a = $(i-1)
  if (a + 0 != 0) { printf "FAIL: BenchmarkRoundMarshal %s allocs/op, want 0\n", a; bad = 1 }
}
/^BenchmarkStreamedRounds\/Streamed/ {
  seen_sr = 1
  for (i = 1; i <= NF; i++) if ($i == "allocs/op") a = $(i-1)
  if (a + 0 > ceiling) { printf "FAIL: BenchmarkStreamedRounds/Streamed %s allocs/op, ceiling %d\n", a, ceiling; bad = 1 }
}
/^BenchmarkShareExpand\/L=1024/ {
  seen_se = 1
  for (i = 1; i <= NF; i++) if ($i == "allocs/op") a = $(i-1)
  if (a + 0 > expand_ceiling) { printf "FAIL: BenchmarkShareExpand/L=1024 %s allocs/op, ceiling %d\n", a, expand_ceiling; bad = 1 }
}
/^BenchmarkBuildSubmission\/bits1024/ {
  seen_bs = 1
  for (i = 1; i <= NF; i++) if ($i == "allocs/op") a = $(i-1)
  if (a + 0 > build_ceiling) { printf "FAIL: BenchmarkBuildSubmission/bits1024 %s allocs/op, ceiling %d\n", a, build_ceiling; bad = 1 }
}
END {
  if (!seen_rm) { print "FAIL: BenchmarkRoundMarshal did not run"; bad = 1 }
  if (!seen_sr) { print "FAIL: BenchmarkStreamedRounds/Streamed did not run"; bad = 1 }
  if (!seen_se) { print "FAIL: BenchmarkShareExpand/L=1024 did not run"; bad = 1 }
  if (!seen_bs) { print "FAIL: BenchmarkBuildSubmission/bits1024 did not run"; bad = 1 }
  exit bad
}' "${OUT}"

echo "PASS: alloc gate"
