#include "relaxed/relaxed_trie.hpp"

#include <gtest/gtest.h>

#include <set>

#include "reclaim/mem_stats.hpp"
#include "set_test_util.hpp"

namespace lfbt {
namespace {

TEST(RelaxedTrieSeq, Basics) {
  RelaxedBinaryTrie t(64);
  EXPECT_FALSE(t.contains(5));
  t.insert(5);
  EXPECT_TRUE(t.contains(5));
  t.insert(5);  // idempotent
  EXPECT_TRUE(t.contains(5));
  t.erase(5);
  EXPECT_FALSE(t.contains(5));
  t.erase(5);  // idempotent
  EXPECT_FALSE(t.contains(5));
}

TEST(RelaxedTrieSeq, PredecessorNeverBottomWithoutConcurrency) {
  // Section 4.1: with no concurrent updates, RelaxedPredecessor returns
  // the exact predecessor (never ⊥).
  RelaxedBinaryTrie t(256);
  std::set<Key> ref;
  Xoshiro256 rng(3);
  for (int i = 0; i < 20000; ++i) {
    Key k = static_cast<Key>(rng.bounded(256));
    switch (rng.bounded(3)) {
      case 0:
        t.insert(k);
        ref.insert(k);
        break;
      case 1:
        t.erase(k);
        ref.erase(k);
        break;
      default: {
        Key got = t.relaxed_predecessor(k + 1);
        ASSERT_NE(got, kBottom) << "⊥ without concurrent updates";
        ASSERT_EQ(got, testutil::ref_predecessor(ref, k + 1));
      }
    }
  }
}

class RelaxedTrieUniverses : public ::testing::TestWithParam<Key> {};

TEST_P(RelaxedTrieUniverses, DifferentialAgainstStdSet) {
  const Key u = GetParam();
  RelaxedBinaryTrie t(u);
  std::set<Key> ref;
  Xoshiro256 rng(static_cast<uint64_t>(u) + 5);
  for (int i = 0; i < 20000; ++i) {
    Key k = static_cast<Key>(rng.bounded(static_cast<uint64_t>(u)));
    switch (rng.bounded(4)) {
      case 0:
        t.insert(k);
        ref.insert(k);
        break;
      case 1:
        t.erase(k);
        ref.erase(k);
        break;
      case 2:
        ASSERT_EQ(t.contains(k), ref.count(k) > 0);
        break;
      default:
        ASSERT_EQ(t.relaxed_predecessor(k + 1),
                  testutil::ref_predecessor(ref, k + 1));
        ASSERT_EQ(t.relaxed_successor(k - 1),
                  testutil::ref_successor(ref, k - 1));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Universes, RelaxedTrieUniverses,
                         ::testing::Values(1, 2, 3, 8, 17, 64, 1000, 1 << 14));

TEST(RelaxedTrieSeq, InterpretedBitsMatchQuiescentReference) {
  // IB0/IB1 (Lemmas 4.21 / 4.26): with no active updates, every internal
  // node's interpreted bit equals the OR over its leaves.
  RelaxedBinaryTrie t(64);
  Xoshiro256 rng(9);
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 40; ++i) {
      Key k = static_cast<Key>(rng.bounded(64));
      if (rng.bounded(2)) {
        t.insert(k);
      } else {
        t.erase(k);
      }
    }
    TrieCore& core = t.core_for_test();
    for (uint64_t node = 1; node < core.leaf_base(); ++node) {
      bool expect = core.quiescent_bit_reference(node);
      ASSERT_EQ(core.interpreted_bit(node), expect)
          << "round " << round << " node " << node;
    }
  }
}

TEST(RelaxedTrieSeq, MaxQueryAtUniverseBoundary) {
  RelaxedBinaryTrie t(128);
  EXPECT_EQ(t.relaxed_predecessor(128), kNoKey);
  t.insert(127);
  EXPECT_EQ(t.relaxed_predecessor(128), 127);
  t.insert(0);
  EXPECT_EQ(t.relaxed_predecessor(1), 0);
  EXPECT_EQ(t.relaxed_predecessor(0), kNoKey);
}

TEST(RelaxedTrieSeq, MemoryGrowsWithOpsNotUniverse) {
  // Lazy dummies: a sparse workload on a large universe must not allocate
  // per-key state for untouched keys.
  const MemStats::ClassSnapshot before =
      MemStats::snapshot(MemClass::kUpdateNode);
  RelaxedBinaryTrie big(Key{1} << 22);
  for (Key k = 0; k < 100; ++k) big.insert(k * 37);
  // Trie index arrays are O(u) pointers (unavoidable for the paper's
  // structure); update nodes grow with the ops: per insert its INS node,
  // its key's dummy and at most one dummy per ancestor.
  EXPECT_LE(MemStats::snapshot(MemClass::kUpdateNode).acquired -
                before.acquired,
            100u * (big.core_for_test().b() + 2));
}

}  // namespace
}  // namespace lfbt
