// Single-writer interval oracle.
//
// When exactly one thread mutates the set, its program order *is* the
// linearization order of updates, so the abstract state timeline is known
// exactly between writer operations. Reader threads record
// (t1, query, answer, t2) tuples; a query is correct iff its answer
// matches the predecessor in some state version whose possible lifetime
// overlaps (t1, t2).
//
// Version j (the state after writer op j) is possibly live from inv_j
// (earliest linearization of op j) until res_{j+1} (latest linearization
// of op j+1), so the check is sound: it never reports a violation for a
// linearizable execution. It is also tight enough to catch real bugs —
// a predecessor answer that was never valid in any overlapping version is
// a definite linearizability violation.
//
// Universe <= 64 (bitmask states), same as the Wing–Gong checker.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "verify/history.hpp"
#include "verify/linearizability.hpp"

namespace lfbt {

class SingleWriterOracle {
 public:
  struct Version {
    uint64_t inv;    // invocation ticket of the op creating this state
    uint64_t res;    // response ticket of that op
    uint64_t state;  // bitmask after the op
  };

  struct Query {
    uint64_t t1;
    Key y;
    Key answer;
    uint64_t t2;
    // Which directional query this records; validated against the
    // matching bitmask oracle.
    OpKind kind = OpKind::kPredecessor;
    // Range-scan queries only (reader_scan_query): `y` is the window
    // bottom, `hi` the inclusive top, `limit` the request cap, `mask`
    // the reported key set, `answer` the reported count.
    Key hi = 0;
    uint32_t limit = 0;
    uint64_t mask = 0;
  };

  explicit SingleWriterOracle(uint64_t initial_state = 0) {
    versions_.push_back({0, 0, initial_state});
  }

  /// Writer only: perform `kind`(key) on `set` and record the new state.
  template <class Set>
  void writer_apply(Set& set, OpKind kind, Key key, HistoryClock& clock) {
    Version v;
    v.inv = clock.tick();
    if (kind == OpKind::kInsert) {
      set.insert(key);
    } else {
      set.erase(key);
    }
    v.res = clock.tick();
    v.state = versions_.back().state;
    if (kind == OpKind::kInsert) {
      v.state |= uint64_t{1} << key;
    } else {
      v.state &= ~(uint64_t{1} << key);
    }
    versions_.push_back(v);
  }

  /// Any reader thread: run predecessor and log the query (thread-local
  /// vector supplied by caller; merge after joining).
  template <class Set>
  static void reader_query(Set& set, Key y, HistoryClock& clock,
                           std::vector<Query>& out) {
    Query q;
    q.t1 = clock.tick();
    q.y = y;
    q.answer = set.predecessor(y);
    q.t2 = clock.tick();
    out.push_back(q);
  }

  /// Successor-direction reader: same interval logging, validated against
  /// bitmask_successor. Sound for any structure whose successor reads the
  /// same abstract state its updates write — since the native symmetric
  /// successor landed that is every shipped structure (historically this
  /// was the strongest sound check for the retired two-view composites,
  /// whose mixed-direction histories full Wing–Gong could not admit).
  template <class Set>
  static void reader_successor_query(Set& set, Key y, HistoryClock& clock,
                                     std::vector<Query>& out) {
    Query q;
    q.t1 = clock.tick();
    q.y = y;
    q.answer = set.successor(y);
    q.t2 = clock.tick();
    q.kind = OpKind::kSuccessor;
    out.push_back(q);
  }

  /// Membership reader: answer is 1/0. Together with the directional
  /// queries this covers the whole point-read surface.
  template <class Set>
  static void reader_contains_query(Set& set, Key y, HistoryClock& clock,
                                    std::vector<Query>& out) {
    Query q;
    q.t1 = clock.tick();
    q.y = y;
    q.answer = set.contains(y) ? 1 : 0;
    q.t2 = clock.tick();
    q.kind = OpKind::kContains;
    out.push_back(q);
  }

  /// Atomic-scan reader: runs a VALIDATED range scan and logs it as a
  /// whole-window query iff the scan reported atomic — an atomic scan
  /// claims one state produced its entire window, so some overlapping
  /// version's lowest min(limit, window) keys must match the mask
  /// exactly. Fallback walks make no such claim and are dropped (the
  /// caller can count them via the return value or Stats).
  template <class Set>
  static bool reader_scan_query(Set& set, Key lo, Key hi, std::size_t limit,
                                HistoryClock& clock,
                                std::vector<Query>& out) {
    Query q;
    q.y = lo;
    q.hi = hi;
    q.limit = static_cast<uint32_t>(limit);
    q.kind = OpKind::kRangeScan;
    thread_local std::vector<Key> buf;
    buf.clear();
    q.t1 = clock.tick();
    const auto r = set.range_scan_validated(lo, hi, limit, buf);
    q.t2 = clock.tick();
    if (!r.atomic) return false;
    q.answer = static_cast<Key>(r.n);
    for (const Key k : buf) q.mask |= uint64_t{1} << k;
    out.push_back(q);
    return true;
  }

  /// Post-join validation. Returns the index of the first invalid query,
  /// or -1 if all are consistent with some overlapping version.
  std::ptrdiff_t validate(const std::vector<Query>& queries) const {
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      if (!query_ok(queries[qi])) return static_cast<std::ptrdiff_t>(qi);
    }
    return -1;
  }

  bool query_ok(const Query& q) const {
    for (std::size_t j = 0; j < versions_.size(); ++j) {
      if (!overlaps(j, q)) continue;
      if (q.kind == OpKind::kRangeScan) {
        if (q.mask == bitmask_scan(versions_[j].state, q.y, q.hi, q.limit)) {
          return true;
        }
        continue;
      }
      const Key expect =
          q.kind == OpKind::kContains
              ? static_cast<Key>((versions_[j].state >> q.y) & 1)
              : (q.kind == OpKind::kSuccessor
                     ? bitmask_successor(versions_[j].state, q.y)
                     : bitmask_predecessor(versions_[j].state, q.y));
      if (expect == q.answer) return true;
    }
    return false;
  }

  const std::vector<Version>& versions() const { return versions_; }

  /// The evidence for a failed query: the query, then one line per
  /// version whose possible lifetime overlaps its interval, with that
  /// version's state bitmask.
  std::string describe(const Query& q) const {
    std::ostringstream out;
    out << "query (" << q.t1 << ", " << q.t2 << ") y=" << q.y << " answered "
        << q.answer << "; overlapping versions:\n";
    for (std::size_t j = 0; j < versions_.size(); ++j) {
      if (!overlaps(j, q)) continue;
      out << "  v" << j << " inv " << versions_[j].inv << " res "
          << versions_[j].res << " state 0x" << std::hex << versions_[j].state
          << std::dec << '\n';
    }
    return out.str();
  }

 private:
  /// Version j is possibly live from its op's invocation until the next
  /// op's response; does that window meet the query's (t1, t2)?
  bool overlaps(std::size_t j, const Query& q) const {
    const uint64_t live_from = versions_[j].inv;
    const uint64_t live_until =
        j + 1 < versions_.size() ? versions_[j + 1].res : ~uint64_t{0};
    return live_from < q.t2 && q.t1 < live_until;
  }

  std::vector<Version> versions_;
};

}  // namespace lfbt
