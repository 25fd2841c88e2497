#!/usr/bin/env bash
# Repeat-runs the Wing–Gong linearizability and single-writer oracle
# tests of each concurrency test binary, the announcement-cell
# reclamation tests, the relaxed-trie and trie-sweep concurrency tests
# and the recycling pools' cross-thread tests, so a flake that one ctest
# pass hides shows up as a failure rate. Meant for a host with >= 4
# hardware threads, where interleavings come from real parallelism
# rather than preemption.
#
#   usage: scripts/stress_repeat.sh N [build-dir]   (default build)
#
# Prints one "test: failures/N" line per suite (filter in brackets) and
# exits non-zero if any run failed. Logs of failing runs are kept under
# STRESS_LOG_DIR (default <build-dir>/stress-logs) as
# <binary>.<suite>.<run>.log, with the failing round's history in them;
# a run is cut after 300 s. Not registered with ctest: tier-1 stays one
# pass.
set -u

N="${1:-}"
BUILD_DIR="${2:-build}"
LOG_DIR="${STRESS_LOG_DIR:-$BUILD_DIR/stress-logs}"

if ! [[ "$N" =~ ^[1-9][0-9]*$ ]]; then
  echo "usage: $0 N [build-dir]" >&2
  exit 2
fi
mkdir -p "$LOG_DIR"

# binary  gtest filter (Wing–Gong + oracle tests of that binary). The
# slow BatchDrain Wing–Gong checker of test_serve runs last, so a job cut
# by its timeout has run every other suite.
SUITES=(
  "test_atomic_scan *WingGong*:*Oracle*"
  "test_lockfree_trie_concurrent *SingleWriterOracle*"
  "test_lockfree_trie_concurrent *StripedHotWindowOracle*"
  "test_successor SuccessorLinearizability.*"
  "test_fused_query FusedQueryLinearizability.*:*StalledFusedDeleteUnderConcurrentQueries"
  "test_keys CompressedTrieConcurrent.*"
  "test_announce_list AnnounceList.RemovedCellIsUnreachableFromEitherHead:AnnounceList.RetiredCellOutlivesNotifierThatReadItsPosition"
  "test_relaxed_trie_concurrent RelaxedTrieConc.*"
  "test_lockfree_trie_properties TrieSweep.*"
  "test_reclaim RecyclePool.*"
  "test_serve *WingGong*"
)

fail=0
for s in "${!SUITES[@]}"; do
  read -r bin filter <<<"${SUITES[$s]}"
  if [ ! -x "$BUILD_DIR/$bin" ]; then
    echo "$bin: missing from $BUILD_DIR" >&2
    fail=1
    continue
  fi
  failures=0
  for i in $(seq "$N"); do
    log="$LOG_DIR/$bin.$s.$i.log"
    # A run that outlives the timeout counts as a failure: a
    # non-linearizable history can send the Wing–Gong search exponential.
    if timeout 300 "$BUILD_DIR/$bin" --gtest_filter="$filter" >"$log" 2>&1; then
      rm -f "$log"
    else
      failures=$((failures + 1))
    fi
  done
  echo "$bin [$filter]: $failures/$N"
  [ "$failures" -eq 0 ] || fail=1
done
exit "$fail"
