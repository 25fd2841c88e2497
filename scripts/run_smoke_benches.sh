#!/usr/bin/env bash
# Runs the self-checking smoke benches serially — they measure
# wall-clock throughput and gate on it, so running them in parallel
# would corrupt each other's numbers. Replaces the historical one-step-
# per-bench CI blocks with one scripted step that keeps per-bench logs.
#
#   usage: scripts/run_smoke_benches.sh [bench-dir]   (default build/bench)
#
# Environment:
#   LFBT_BENCH_MAX_THREADS thread cap passed through (default 2, the CI
#                          smoke convention).
#
# Each bench runs at LFBT_BENCH_SCALE=0.05 and logs to
# <bench-dir>/smoke-logs/<bench>.log. A failing bench names itself and
# prints its log tail; the script runs everything before exiting
# non-zero, so one red bench doesn't hide another.
set -u

BENCH_DIR="${1:-build/bench}"
LOG_DIR="$BENCH_DIR/smoke-logs"
BENCHES="bench_e14_resharding bench_e15_atomic_scan bench_e16_service \
bench_e17_keys"
export LFBT_BENCH_MAX_THREADS="${LFBT_BENCH_MAX_THREADS:-2}"

if [ ! -d "$BENCH_DIR" ]; then
  echo "run_smoke_benches: no such bench dir: $BENCH_DIR" >&2
  exit 2
fi
mkdir -p "$LOG_DIR"

fail=0
for b in $BENCHES; do
  log="$LOG_DIR/$b.log"
  echo "=== $b (scale 0.05, <= $LFBT_BENCH_MAX_THREADS threads) ==="
  if (cd "$BENCH_DIR" && LFBT_BENCH_SCALE=0.05 "./$b") >"$log" 2>&1; then
    tail -n 3 "$log"
  else
    echo "FAILED: $b — last 40 log lines ($log):"
    tail -n 40 "$log"
    fail=1
  fi
done
exit $fail
