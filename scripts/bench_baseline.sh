#!/usr/bin/env bash
# Perf-regression baseline: runs the fig7/fig8/fig9/fig_load bins
# PH-only on the CUBE dataset at K in {3, 8, 20}, plus fig_pack once
# (K=8 only — the packed-artifact reference point), and writes one flat
# JSON of µs metrics ({"fig8_point_query_cube_k8": 1.23, ...}).
# fig_load and fig_pack also hard-assert their own acceptance floors
# (bulk ≥1.5× faster than sequential at K=8, O(1) allocations per
# bulk-loaded entry; packed open ≥10× faster than WAL replay, packed
# bytes/entry ≤ live heap bytes/entry, zero allocs per packed read).
#
# Usage:  scripts/bench_baseline.sh [output.json]
#   QUICK=false scripts/bench_baseline.sh      # full-size run (default true)
#   SCALE=0.05  scripts/bench_baseline.sh      # override the entry count
#   FEATURES=metrics scripts/bench_baseline.sh # measure an instrumented build
#   SINK=true FEATURES=metrics scripts/bench_baseline.sh
#                                              # ... with a live counting sink
#
# The committed baseline lives at BENCH_phtree.json; CI regenerates a
# fresh one in --quick mode and diffs it via scripts/bench_diff.py.
# FEATURES=metrics builds the telemetry-enabled binaries (no sink
# installed), which is how the disabled-path overhead contract in
# DESIGN.md §13 is checked.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_phtree.json}"
QUICK="${QUICK:-true}"
SEED="${SEED:-42}"
SCALE="${SCALE:-}"
FEATURES="${FEATURES:-}"
SINK="${SINK:-}"

if [ -n "$FEATURES" ]; then
  cargo build --release -p ph-bench --features "$FEATURES" >/dev/null
else
  cargo build --release -p ph-bench >/dev/null
fi

EXTRA=()
if [ -n "$SCALE" ]; then
  EXTRA+=(--scale "$SCALE")
fi
if [ -n "$SINK" ]; then
  EXTRA+=(--sink true)
fi

rm -f "$OUT"
for K in 3 8 20; do
  for BIN in fig7_insert fig8_point_query fig9_range_query fig_load; do
    "target/release/$BIN" --k "$K" --quick "$QUICK" --seed "$SEED" \
      --json "$OUT" "${EXTRA[@]+"${EXTRA[@]}"}"
  done
done
# fig_pack is K=8-only (the issue pins its acceptance claims there), so
# it runs once outside the K sweep.
"target/release/fig_pack" --quick "$QUICK" --seed "$SEED" \
  --json "$OUT" "${EXTRA[@]+"${EXTRA[@]}"}"
echo "baseline -> $OUT"
