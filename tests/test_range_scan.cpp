// Bounded ascending range scans (the src/query/ contract, see
// query/range_scan.hpp) across every traversable structure: differential
// against std::set sequentially, limit/boundary edge cases, and a
// concurrent shard-boundary stress where a scan spans a ShardedTrie
// boundary while the keys around it churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <set>
#include <thread>
#include <vector>

#include "baselines/seq_binary_trie.hpp"
#include "core/lockfree_trie.hpp"
#include "ebr_test_util.hpp"
#include "query/range_scan.hpp"
#include "relaxed/relaxed_trie.hpp"
#include "shard/ordered_set.hpp"
#include "shard/sharded_trie.hpp"
#include "sync/random.hpp"

namespace lfbt {
namespace {

std::vector<Key> ref_range(const std::set<Key>& s, Key lo, Key hi,
                           std::size_t limit) {
  std::vector<Key> out;
  for (auto it = s.lower_bound(lo); it != s.end() && *it <= hi; ++it) {
    if (out.size() >= limit) break;
    out.push_back(*it);
  }
  return out;
}

/// Random updates interleaved with exact range-scan comparisons.
template <class Set>
void range_scan_differential(Set& set, Key universe, int ops, uint64_t seed) {
  std::set<Key> ref;
  Xoshiro256 rng(seed);
  for (int i = 0; i < ops; ++i) {
    Key k = static_cast<Key>(rng.bounded(static_cast<uint64_t>(universe)));
    switch (rng.bounded(4)) {
      case 0:
        set.insert(k);
        ref.insert(k);
        break;
      case 1:
        set.erase(k);
        ref.erase(k);
        break;
      default: {
        const Key span = 1 + static_cast<Key>(rng.bounded(
                                 static_cast<uint64_t>(universe / 2)));
        const Key lo = k;
        const Key hi = std::min(lo + span, universe - 1);
        const std::size_t limit = rng.bounded(2) ? kNoScanLimit
                                                 : 1 + rng.bounded(16);
        std::vector<Key> got;
        const std::size_t n = set.range_scan(lo, hi, limit, got);
        ASSERT_EQ(n, got.size()) << "i=" << i;
        ASSERT_EQ(got, ref_range(ref, lo, hi, limit))
            << "i=" << i << " lo=" << lo << " hi=" << hi;
      }
    }
  }
}

TEST(RangeScan, SeqBinaryTrie) {
  SeqBinaryTrie t(1 << 9);
  range_scan_differential(t, 1 << 9, 8000, 301);
}

TEST(RangeScan, RelaxedTrie) {
  RelaxedBinaryTrie s(1 << 8);
  range_scan_differential(s, 1 << 8, 6000, 308);
}

TEST(RangeScan, LockFreeBinaryTrie) {
  LockFreeBinaryTrie s(1 << 9);
  range_scan_differential(s, 1 << 9, 8000, 309);
}

TEST(RangeScan, ShardedTrie) {
  ShardedTrie a(1 << 9, 8);
  range_scan_differential(a, 1 << 9, 8000, 310);
  ShardedTrie b(100, 7);  // non-dividing width
  range_scan_differential(b, 100, 8000, 311);
  ShardedTrie c(32, 32);  // width-1 shards
  range_scan_differential(c, 32, 8000, 312);
}

TEST(RangeScan, EdgeCases) {
  ShardedTrie t(64, 8);
  std::vector<Key> out;
  // Empty set: nothing to report over any window.
  EXPECT_EQ(t.range_scan(0, 63, kNoScanLimit, out), 0u);
  EXPECT_TRUE(out.empty());
  for (Key k : {0, 7, 8, 31, 32, 63}) t.insert(k);
  // limit == 0 is a literal "report nothing".
  EXPECT_EQ(t.range_scan(0, 63, 0, out), 0u);
  // Single-point windows, on and off keys.
  out.clear();
  EXPECT_EQ(t.range_scan(7, 7, kNoScanLimit, out), 1u);
  EXPECT_EQ(out, std::vector<Key>({7}));
  out.clear();
  EXPECT_EQ(t.range_scan(9, 9, kNoScanLimit, out), 0u);
  // Limit cuts the scan short, keeping ascending prefix order.
  out.clear();
  EXPECT_EQ(t.range_scan(0, 63, 3, out), 3u);
  EXPECT_EQ(out, std::vector<Key>({0, 7, 8}));
  // Full window; hi beyond the last key is clamped.
  out.clear();
  EXPECT_EQ(t.range_scan(0, 1000, kNoScanLimit, out), 6u);
  EXPECT_EQ(out, std::vector<Key>({0, 7, 8, 31, 32, 63}));
  // Appending semantics: a second scan extends the same vector.
  EXPECT_EQ(t.range_scan(30, 40, kNoScanLimit, out), 2u);
  EXPECT_EQ(out.size(), 8u);
  // The collect convenience wrapper.
  EXPECT_EQ(range_scan_collect(t, 8, 32), std::vector<Key>({8, 31, 32}));
}

// ---- Concurrent shard-boundary stress -------------------------------------
//
// A scan window spanning a ShardedTrie shard boundary while the keys at
// the boundary churn. Every churned key is owned by exactly one thread
// (keeps the reference key-set reasoning simple; the native successor
// needs no two-view precondition), and a set of pinned keys is never
// touched after setup. The weak-consistency contract then guarantees for
// every observed scan:
//   * strictly ascending, within [lo, hi];
//   * every pinned key inside the window is reported;
//   * everything reported is a pinned or churned key (nothing invented).
TEST(RangeScanConcurrent, ShardBoundaryChurn) {
  constexpr Key kUniverse = Key{1} << 12;  // width 512, boundary at 2048
  constexpr Key kBoundary = 2048;
  constexpr Key kLo = kBoundary - 40;
  constexpr Key kHi = kBoundary + 40;
  ShardedTrie t(kUniverse, 8);
  ASSERT_EQ(t.shard_of(kBoundary - 1) + 1, t.shard_of(kBoundary))
      << "window must actually span a shard boundary";

  // Pinned keys inside and outside the churn band.
  const std::vector<Key> pinned = {kLo,           kBoundary - 25, kBoundary - 9,
                                   kBoundary + 9, kBoundary + 25, kHi};
  for (Key k : pinned) t.insert(k);

  // Churned keys: per-thread disjoint 4-key slices around the boundary.
  constexpr int kChurners = 4;
  std::vector<std::vector<Key>> churn_keys(kChurners);
  std::set<Key> churnable;
  for (int w = 0; w < kChurners; ++w) {
    for (int j = 0; j < 4; ++j) {
      // Interleave slices across the boundary: offsets -8..7 around it.
      const Key k = kBoundary - 8 + static_cast<Key>(w * 4 + j);
      churn_keys[w].push_back(k);
      churnable.insert(k);
    }
  }
  for (Key k : pinned) ASSERT_EQ(churnable.count(k), 0u);

  std::atomic<bool> stop{false};
  std::atomic<bool> bad{false};
  std::vector<std::thread> churners;
  for (int w = 0; w < kChurners; ++w) {
    churners.emplace_back([&, w] {
      Xoshiro256 rng(314 + static_cast<uint64_t>(w));
      while (!stop.load()) {
        const Key k = churn_keys[w][rng.bounded(churn_keys[w].size())];
        if (rng.bounded(2)) {
          t.insert(k);
        } else {
          t.erase(k);
        }
      }
    });
  }

  std::vector<Key> got;
  for (int scan = 0; scan < 4000 && !bad.load(); ++scan) {
    got.clear();
    t.range_scan(kLo, kHi, kNoScanLimit, got);
    if (std::adjacent_find(got.begin(), got.end(), std::greater_equal<Key>()) !=
        got.end()) {
      bad = true;  // not strictly ascending (dup or disorder)
      break;
    }
    for (Key k : got) {
      if (k < kLo || k > kHi ||
          (churnable.count(k) == 0 &&
           std::find(pinned.begin(), pinned.end(), k) == pinned.end())) {
        bad = true;
        break;
      }
    }
    for (Key k : pinned) {
      if (std::find(got.begin(), got.end(), k) == got.end()) {
        bad = true;  // a never-touched key inside the window went missing
        break;
      }
    }
  }
  stop = true;
  for (auto& th : churners) th.join();
  EXPECT_FALSE(bad.load());

  // Quiescent: the scan must now be exact.
  std::set<Key> contents;
  for (Key k = kLo; k <= kHi; ++k) {
    if (t.contains(k)) contents.insert(k);
  }
  got.clear();
  t.range_scan(kLo, kHi, kNoScanLimit, got);
  EXPECT_EQ(got, std::vector<Key>(contents.begin(), contents.end()));
}

}  // namespace
}  // namespace lfbt
