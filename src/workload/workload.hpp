// Workload specification: operation mixes and per-thread deterministic
// operation streams over a key distribution.
//
// The op surface matches the repository-wide ordered-set API: the four
// paper operations plus the traversal pair (successor and bounded range
// scans). Traversal ops default to 0% so every pre-existing mix literal
// keeps its meaning.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "shard/ordered_set.hpp"
#include "sync/stats.hpp"
#include "workload/distributions.hpp"

namespace lfbt {

enum class OpKind : uint8_t {
  kInsert,
  kErase,
  kContains,
  kPredecessor,
  kSuccessor,
  kRangeScan,
};

/// Percentages; must sum to 100.
struct OpMix {
  int insert_pct = 25;
  int erase_pct = 25;
  int contains_pct = 25;
  int predecessor_pct = 25;
  int successor_pct = 0;
  int range_pct = 0;

  int sum() const {
    return insert_pct + erase_pct + contains_pct + predecessor_pct +
           successor_pct + range_pct;
  }

  /// Stable short name; the traversal fields appear only when nonzero so
  /// every pre-existing mix keeps its historical name (and JSON key).
  std::string name() const {
    // Built with append (not operator+ chains): GCC 12's -Wrestrict
    // false-positives on temporary-string operator+ under heavy
    // inlining (PR105329-adjacent); append compiles clean everywhere.
    std::string n = "i";
    n += std::to_string(insert_pct);
    n += "/d";
    n += std::to_string(erase_pct);
    n += "/s";
    n += std::to_string(contains_pct);
    n += "/p";
    n += std::to_string(predecessor_pct);
    if (successor_pct > 0) {
      n += "/S";
      n += std::to_string(successor_pct);
    }
    if (range_pct > 0) {
      n += "/r";
      n += std::to_string(range_pct);
    }
    return n;
  }
};

inline constexpr OpMix kUpdateHeavy{50, 50, 0, 0};
inline constexpr OpMix kBalanced{25, 25, 25, 25};
inline constexpr OpMix kTraversalMix{15, 15, 10, 20, 20, 20};

struct Op {
  OpKind kind;
  Key key;
  // kRangeScan only: scan [key, hi] reporting at most `limit` keys.
  Key hi = 0;
  uint32_t limit = 0;
};

/// Deterministic per-thread operation stream. `scan_span` is the width of
/// the key window a kRangeScan op covers ([k, k + span - 1], clamped to
/// the universe); `scan_limit` caps how many keys one scan may report.
class OpStream {
 public:
  OpStream(const OpMix& mix, KeyDistribution& dist, uint64_t seed,
           Key scan_span = 64, uint32_t scan_limit = 64)
      : mix_(mix),
        dist_(&dist),
        rng_(seed),
        scan_span_(scan_span < 1 ? 1 : scan_span),
        scan_limit_(scan_limit) {
    assert(mix.sum() == 100);
  }

  Op next() {
    const auto roll = static_cast<int>(rng_.bounded(100));
    OpKind kind;
    int acc = mix_.insert_pct;
    if (roll < acc) {
      kind = OpKind::kInsert;
    } else if (roll < (acc += mix_.erase_pct)) {
      kind = OpKind::kErase;
    } else if (roll < (acc += mix_.contains_pct)) {
      kind = OpKind::kContains;
    } else if (roll < (acc += mix_.predecessor_pct)) {
      kind = OpKind::kPredecessor;
    } else if (roll < (acc += mix_.successor_pct)) {
      kind = OpKind::kSuccessor;
    } else {
      kind = OpKind::kRangeScan;
    }
    Op op{kind, dist_->sample(rng_), 0, 0};
    if (kind == OpKind::kRangeScan) {
      const Key last = dist_->range() - 1;
      // Skew-correlated span: a second sample from the same distribution
      // sets the window width, so dense hot regions draw narrow windows
      // and the sparse tail draws wide ones — real services scan "around
      // here", and "here" is distributed like the keys themselves (the
      // E10 fixed-width windows are retired with this). Spans stay in
      // [1, scan_span]: scan_span remains the hard ceiling callers and
      // tests rely on, and a uniform distribution degrades to uniform
      // span widths over that interval.
      const Key k2 = dist_->sample(rng_);
      const Key delta = k2 > op.key ? k2 - op.key : op.key - k2;
      const Key span = 1 + delta % scan_span_;
      op.hi = op.key > last - span + 1 ? last : op.key + span - 1;
      op.limit = scan_limit_;
    }
    return op;
  }

 private:
  OpMix mix_;
  KeyDistribution* dist_;
  Xoshiro256 rng_;
  Key scan_span_;
  uint32_t scan_limit_;
};

/// Applies one op to any set implementing the common concept. The returned
/// value is the op's observable result (for queries) and is folded into a
/// sink by callers so the compiler cannot elide work.
template <OrderedSet Set>
inline uint64_t apply_op(Set& set, const Op& op) {
  switch (op.kind) {
    case OpKind::kInsert:
      set.insert(op.key);
      return 1;
    case OpKind::kErase:
      set.erase(op.key);
      return 2;
    case OpKind::kContains:
      return set.contains(op.key) ? 3 : 4;
    case OpKind::kPredecessor:
      return static_cast<uint64_t>(set.predecessor(op.key) + 2);
    case OpKind::kSuccessor:
      return static_cast<uint64_t>(set.successor(op.key) + 2);
    case OpKind::kRangeScan: {
      thread_local std::vector<Key> scratch;
      scratch.clear();
      const std::size_t n = set.range_scan(op.key, op.hi, op.limit, scratch);
      Stats::count_scan(n);
      return static_cast<uint64_t>(n) +
             (n > 0 ? static_cast<uint64_t>(scratch.back()) : 0);
    }
  }
  return 0;
}

}  // namespace lfbt
