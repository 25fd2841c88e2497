// Concurrent-history recording for linearizability checking.
//
// Invocation/response timestamps come from one global atomic counter, so
// the recorded partial order is consistent with real time: if op A's
// response ticket precedes op B's invocation ticket, A really happened
// before B.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "workload/workload.hpp"

namespace lfbt {

struct RecordedOp {
  OpKind kind;
  Key key;
  uint64_t inv = 0;
  uint64_t res = 0;
  /// contains: 0/1; predecessor/successor: the returned key (or kNoKey);
  /// updates: 0; range scans: the number of keys reported.
  int64_t ret = 0;
  /// Range-scan events only (recorded_scan): `key` is the inclusive
  /// window bottom, `hi` the inclusive top, `limit` the request cap, and
  /// `mask` the reported key set as a bitmask (universe <= 64).
  Key hi = 0;
  uint32_t limit = 0;
  uint64_t mask = 0;
  /// Index of the recording thread, or -1 when not known (e.g. the
  /// quiescent observations between stress rounds).
  int thread = -1;
};

/// The evidence a failed check prints: one line per op in invocation
/// order, "inv-res tT kind(key) -> answer", where T is the recording
/// thread ("-" when unknown). Scans also show their window, limit and
/// reported key set.
inline std::string describe(const std::vector<RecordedOp>& history) {
  static constexpr const char* kNames[] = {"insert", "erase", "contains",
                                           "predecessor", "successor",
                                           "scan"};
  std::vector<RecordedOp> ops = history;
  std::sort(ops.begin(), ops.end(),
            [](const RecordedOp& a, const RecordedOp& b) { return a.inv < b.inv; });
  std::ostringstream out;
  for (const RecordedOp& op : ops) {
    out << op.inv << '-' << op.res << " t"
        << (op.thread >= 0 ? std::to_string(op.thread) : "-") << ' '
        << kNames[static_cast<int>(op.kind)] << '(' << op.key;
    if (op.kind == OpKind::kRangeScan) {
      out << ".." << op.hi << ", limit " << op.limit << ") -> " << op.ret
          << " keys, mask 0x" << std::hex << op.mask << std::dec << '\n';
    } else {
      out << ") -> " << op.ret << '\n';
    }
  }
  return out.str();
}

class HistoryClock {
 public:
  uint64_t tick() { return clock_.fetch_add(1, std::memory_order_acq_rel); }

 private:
  std::atomic<uint64_t> clock_{1};
};

/// Runs one op against `set`, recording it into `out`. Query kinds the
/// structure does not implement are guarded by `requires` checks so the
/// template instantiates for partial-surface structures too (e.g. the
/// successor-only MirroredTrie) — invoking an unimplemented kind at
/// runtime records an impossible return value the checker will reject.
/// Range scans carry a whole window, not a single point, and go through
/// recorded_scan below instead.
template <class Set>
void recorded_apply(Set& set, OpKind kind, Key key, HistoryClock& clock,
                    std::vector<RecordedOp>& out) {
  RecordedOp rec;
  rec.kind = kind;
  rec.key = key;
  rec.ret = kUnsetPred;  // impossible answer: poisons unimplemented kinds
  rec.inv = clock.tick();
  switch (kind) {
    case OpKind::kInsert:
      set.insert(key);
      rec.ret = 0;
      break;
    case OpKind::kErase:
      set.erase(key);
      rec.ret = 0;
      break;
    case OpKind::kContains:
      rec.ret = set.contains(key) ? 1 : 0;
      break;
    case OpKind::kPredecessor:
      if constexpr (requires { set.predecessor(key); }) {
        rec.ret = set.predecessor(key);
      }
      break;
    case OpKind::kSuccessor:
      if constexpr (requires { set.successor(key); }) {
        rec.ret = set.successor(key);
      }
      break;
    case OpKind::kRangeScan:
      break;
  }
  rec.res = clock.tick();
  out.push_back(rec);
}

/// Runs one VALIDATED range scan of [lo, hi] (cap `limit`) against
/// `set`, recording it as a whole-scan event iff the scan reported
/// atomic — a fallback walk makes no single-state claim and is dropped,
/// not recorded (checking it would reject correct per-step executions).
/// Returns true when the event was recorded. Universe must be <= 64.
template <class Set>
bool recorded_scan(Set& set, Key lo, Key hi, std::size_t limit,
                   HistoryClock& clock, std::vector<RecordedOp>& out) {
  RecordedOp rec;
  rec.kind = OpKind::kRangeScan;
  rec.key = lo;
  rec.hi = hi;
  rec.limit = static_cast<uint32_t>(limit);
  thread_local std::vector<Key> buf;
  buf.clear();
  rec.inv = clock.tick();
  const auto r = set.range_scan_validated(lo, hi, limit, buf);
  rec.res = clock.tick();
  if (!r.atomic) return false;
  rec.ret = static_cast<int64_t>(r.n);
  for (const Key k : buf) rec.mask |= uint64_t{1} << k;
  out.push_back(rec);
  return true;
}

}  // namespace lfbt
