// ShardedTrie: cross-shard predecessor edges, differential and
// linearizability coverage for the partitioned subsystem.
#include "shard/sharded_trie.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "set_test_util.hpp"
#include "stress_util.hpp"

namespace lfbt {
namespace {

// ---- Construction / routing geometry ------------------------------------

TEST(ShardedTrieGeometry, WidthAndShardCount) {
  ShardedTrie a(64, 8);
  EXPECT_EQ(a.shard_count(), 8);
  EXPECT_EQ(a.shard_width(), 8);
  // Non-dividing shard count: width = ceil(100/7) = 15, 7 shards cover it.
  ShardedTrie b(100, 7);
  EXPECT_EQ(b.shard_width(), 15);
  EXPECT_EQ(b.shard_count(), 7);
  EXPECT_EQ(b.universe(), 100);
  // More shards than keys degenerates gracefully (width 1, u shards).
  ShardedTrie c(4, 16);
  EXPECT_EQ(c.shard_width(), 1);
  EXPECT_EQ(c.shard_count(), 4);
  // Shard counts above kMaxShards are clamped (wider shards instead);
  // the cap sizes the per-shard epoch arrays of walks and scans.
  ShardedTrie d(Key{1} << 16, 4096);
  EXPECT_EQ(d.shard_count(), ShardedTrie::kMaxShards);
  EXPECT_EQ(d.shard_width(), (Key{1} << 16) / ShardedTrie::kMaxShards);
}

TEST(ShardedTrieGeometry, SingleKeyUniverse) {
  ShardedTrie t(1, 4);
  EXPECT_EQ(t.shard_count(), 1);
  EXPECT_FALSE(t.contains(0));
  EXPECT_EQ(t.predecessor(0), kNoKey);
  EXPECT_EQ(t.predecessor(1), kNoKey);
  t.insert(0);
  EXPECT_TRUE(t.contains(0));
  EXPECT_EQ(t.predecessor(1), 0);
  EXPECT_EQ(t.predecessor(0), kNoKey);  // keys >= y excluded
  t.erase(0);
  EXPECT_FALSE(t.contains(0));
  EXPECT_EQ(t.predecessor(1), kNoKey);
}

// ---- Cross-shard predecessor edge cases ----------------------------------

TEST(ShardedTriePredecessor, ShardBoundaries) {
  // Universe 64, width 8: shard boundaries at 8, 16, ..., 56.
  ShardedTrie t(64, 8);
  for (Key k : {7, 8, 15, 16, 31, 32, 55, 56}) t.insert(k);
  // Query exactly at a boundary: answer lives in the shard below.
  EXPECT_EQ(t.predecessor(8), 7);
  EXPECT_EQ(t.predecessor(16), 15);
  EXPECT_EQ(t.predecessor(32), 31);
  EXPECT_EQ(t.predecessor(56), 55);
  // Query one past a boundary key: answer is the boundary key itself.
  EXPECT_EQ(t.predecessor(9), 8);
  EXPECT_EQ(t.predecessor(17), 16);
  EXPECT_EQ(t.predecessor(57), 56);
  // Query inside an empty shard walks down across several shards.
  EXPECT_EQ(t.predecessor(50), 32);
  EXPECT_EQ(t.predecessor(64), 56);
  EXPECT_EQ(t.predecessor(7), kNoKey);
  EXPECT_EQ(t.predecessor(0), kNoKey);
}

TEST(ShardedTriePredecessor, AllLowerShardsEmpty) {
  // Only the top shard holds keys; every lower-shard query must walk all
  // the way down through empty-shard skips and answer kNoKey.
  ShardedTrie t(64, 8);
  t.insert(60);
  t.insert(62);
  for (Key y = 0; y <= 60; ++y) {
    EXPECT_EQ(t.predecessor(y), kNoKey) << "y=" << y;
  }
  EXPECT_EQ(t.predecessor(61), 60);
  EXPECT_EQ(t.predecessor(62), 60);
  EXPECT_EQ(t.predecessor(63), 62);
  EXPECT_EQ(t.predecessor(64), 62);
}

TEST(ShardedTriePredecessor, OnlyBottomShardOccupied) {
  ShardedTrie t(64, 8);
  t.insert(0);
  t.insert(3);
  // Top-shard queries walk down 7 empty shards to shard 0.
  EXPECT_EQ(t.predecessor(64), 3);
  EXPECT_EQ(t.predecessor(4), 3);
  EXPECT_EQ(t.predecessor(3), 0);
  EXPECT_EQ(t.predecessor(1), 0);
  EXPECT_EQ(t.predecessor(0), kNoKey);
}

TEST(ShardedTriePredecessor, ExhaustiveAgainstReference) {
  // Several content patterns, every query point, non-dividing shards.
  const std::vector<std::vector<Key>> patterns = {
      {},
      {0},
      {99},
      {0, 99},
      {14, 15, 16},  // straddles the width-15 boundary of (100, 7)
      {29, 30, 44, 45, 59, 60, 74, 75, 89, 90},
      {7, 22, 37, 52, 67, 82, 97},
  };
  for (const auto& pattern : patterns) {
    ShardedTrie t(100, 7);
    std::set<Key> ref;
    for (Key k : pattern) {
      t.insert(k);
      ref.insert(k);
    }
    for (Key y = 0; y <= 100; ++y) {
      ASSERT_EQ(t.predecessor(y), testutil::ref_predecessor(ref, y))
          << "pattern size " << pattern.size() << " y=" << y;
    }
  }
}

// ---- Differential tests ---------------------------------------------------

TEST(ShardedTrieSeq, SequentialDifferential) {
  ShardedTrie t(256, 8);
  testutil::sequential_differential(t, 256, 20000, /*seed=*/7);
}

TEST(ShardedTrieSeq, SequentialDifferentialNonDividing) {
  ShardedTrie t(100, 7);
  testutil::sequential_differential(t, 100, 20000, /*seed=*/11);
}

TEST(ShardedTrieSeq, SequentialDifferentialWidthOne) {
  // Width-1 shards (64 = kMaxShards, so no clamping widens them): every
  // cross-shard walk degenerates to a pure summary scan; stresses the
  // empty-shard skip path hardest.
  ShardedTrie t(64, 64);
  testutil::sequential_differential(t, 64, 20000, /*seed=*/13);
}

TEST(ShardedTrieSize, QuiescentExactness) {
  ShardedTrie t(128, 8);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  std::set<Key> ref;
  Xoshiro256 rng(99);
  for (int i = 0; i < 4000; ++i) {
    Key k = static_cast<Key>(rng.bounded(128));
    if (rng.bounded(2)) {
      t.insert(k);
      ref.insert(k);
    } else {
      t.erase(k);
      ref.erase(k);
    }
    ASSERT_EQ(t.size(), ref.size()) << "i=" << i;
    ASSERT_EQ(t.empty(), ref.empty());
  }
}

// ---- Concurrent tests -----------------------------------------------------

TEST(ShardedTrieConcurrent, DisjointRangeDeterminism) {
  // Per-thread ranges of 600 keys deliberately misaligned with the
  // width-512 shards, so every thread's stream straddles a boundary.
  ShardedTrie t(Key{1} << 12, 8);
  testutil::disjoint_range_determinism(t, /*threads=*/6,
                                       /*range_per_thread=*/600,
                                       /*ops_per_thread=*/4000, /*seed=*/21);
  testutil::quiescent_predecessor_exact(t, Key{1} << 12);
}

TEST(ShardedTrieConcurrent, ContentionHammer) {
  ShardedTrie t(64, 8);
  testutil::contention_hammer(t, 64, /*threads=*/8, /*ops_per_thread=*/20000,
                              /*seed=*/31);
  testutil::quiescent_predecessor_exact(t, 64);
}

// ---- Linearizability (Wing–Gong) -----------------------------------------

class ShardedTrieLinearizability
    : public ::testing::TestWithParam<std::tuple<int, int, int, uint64_t>> {};

TEST_P(ShardedTrieLinearizability, WindowedWingGong) {
  auto [shards, threads, pred_weight, seed] = GetParam();
  ShardedTrie trie(16, shards);
  testutil::StressSpec spec;
  spec.universe = 16;
  spec.threads = threads;
  spec.ops_per_round = 10;
  spec.rounds = 120;
  spec.pred_weight = pred_weight;
  spec.seed = seed;
  testutil::linearizability_stress(trie, spec);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ShardedTrieLinearizability,
    ::testing::Values(std::tuple{4, 2, 30, 41ull}, std::tuple{4, 4, 30, 42ull},
                      std::tuple{4, 4, 60, 43ull}, std::tuple{4, 6, 40, 44ull},
                      std::tuple{2, 4, 50, 45ull}, std::tuple{8, 4, 50, 46ull},
                      // Width-1 shards: predecessor answers come almost
                      // entirely from the cross-shard walk + validation.
                      std::tuple{16, 4, 60, 47ull},
                      std::tuple{16, 6, 40, 48ull}));

TEST(ShardedTrieLinearizabilitySingles, TinyUniverseMaximalContention) {
  // Universe of 8 over 4 shards: nearly every op collides and most
  // predecessor queries cross at least one shard boundary.
  ShardedTrie trie(8, 4);
  testutil::StressSpec spec;
  spec.universe = 8;
  spec.threads = 6;
  spec.ops_per_round = 8;
  spec.rounds = 150;
  spec.pred_weight = 50;
  spec.contains_weight = 10;
  spec.seed = 1099;
  testutil::linearizability_stress(trie, spec);
}

TEST(ShardedTrieLinearizabilitySingles, UpdatesOnlyStrongHistory) {
  ShardedTrie trie(8, 4);
  testutil::StressSpec spec;
  spec.universe = 8;
  spec.threads = 6;
  spec.ops_per_round = 12;
  spec.rounds = 120;
  spec.pred_weight = 0;
  spec.contains_weight = 40;
  spec.seed = 1123;
  testutil::linearizability_stress(trie, spec);
}

}  // namespace
}  // namespace lfbt
