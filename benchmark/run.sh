#!/usr/bin/env bash
# The repository's benchmark. Builds `stackbench` (release) and runs it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of output is the result
#       object (this is the form BENCHMARK.json's `command` takes)
#   benchmark/run.sh [--seed N] [--scale F] [--seconds S] [--workload NAME]
#       every workload (or the one named) untraced, then traced; prints
#       every metric by name with its unit; non-zero exit if any reply
#       disagreed with the model
#   benchmark/run.sh --repeat [N] [--seed N] [--scale F] [--workload NAME]
#       the untraced suite N times (default 2) on one build; prints each
#       value, the spread and the bound from BENCHMARK.json; non-zero
#       exit if a spread exceeds its bound
#
# Stores live on an in-memory device (see benchmark/README.md), so a run
# leaves nothing behind but benchmark/out/trace_<workload>.json.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/stackbench"
for arg in "$@"; do
  if [ "$arg" = "--trace" ]; then
    exec "$bin" "$@"
  fi
done
exec python3 benchmark/suite.py "$bin" "$@"
