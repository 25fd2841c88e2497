#include "core/lockfree_trie.hpp"

#include <gtest/gtest.h>

#include <set>

#include "reclaim/mem_stats.hpp"
#include "set_test_util.hpp"

namespace lfbt {
namespace {

TEST(LockFreeTrieSeq, Basics) {
  LockFreeBinaryTrie t(64);
  EXPECT_FALSE(t.contains(5));
  t.insert(5);
  EXPECT_TRUE(t.contains(5));
  t.insert(5);
  EXPECT_TRUE(t.contains(5));
  t.erase(5);
  EXPECT_FALSE(t.contains(5));
  t.erase(5);
  EXPECT_FALSE(t.contains(5));
}

TEST(LockFreeTrieSeq, SizeAndEmpty) {
  LockFreeBinaryTrie t(64);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  t.insert(5);
  EXPECT_EQ(t.size(), 1u);
  t.insert(5);  // duplicate: no change
  EXPECT_EQ(t.size(), 1u);
  t.insert(9);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_FALSE(t.empty());
  t.erase(5);
  EXPECT_EQ(t.size(), 1u);
  t.erase(5);  // absent: no change
  EXPECT_EQ(t.size(), 1u);
  t.erase(9);
  EXPECT_TRUE(t.empty());
  // Quiescent exactness against an oracle through a random update run.
  std::set<Key> ref;
  Xoshiro256 rng(3);
  for (int i = 0; i < 4000; ++i) {
    Key k = static_cast<Key>(rng.bounded(64));
    if (rng.bounded(2)) {
      t.insert(k);
      ref.insert(k);
    } else {
      t.erase(k);
      ref.erase(k);
    }
    ASSERT_EQ(t.size(), ref.size()) << "i=" << i;
  }
}

TEST(LockFreeTrieSeq, PredecessorSemantics) {
  LockFreeBinaryTrie t(64);
  EXPECT_EQ(t.predecessor(0), kNoKey);
  EXPECT_EQ(t.predecessor(64), kNoKey);
  for (Key k : {3, 17, 33, 60}) t.insert(k);
  EXPECT_EQ(t.predecessor(3), kNoKey);
  EXPECT_EQ(t.predecessor(4), 3);
  EXPECT_EQ(t.predecessor(17), 3);
  EXPECT_EQ(t.predecessor(18), 17);
  EXPECT_EQ(t.predecessor(64), 60);
  t.erase(17);
  EXPECT_EQ(t.predecessor(18), 3);
  t.erase(3);
  EXPECT_EQ(t.predecessor(18), kNoKey);
}

TEST(LockFreeTrieSeq, InsertEraseCycleRestoresEverything) {
  LockFreeBinaryTrie t(256);
  for (int round = 0; round < 100; ++round) {
    for (Key k = 0; k < 256; k += 5) t.insert(k);
    for (Key k = 0; k < 256; k += 5) EXPECT_TRUE(t.contains(k));
    EXPECT_EQ(t.predecessor(256), 255);
    for (Key k = 0; k < 256; k += 5) t.erase(k);
    EXPECT_EQ(t.predecessor(256), kNoKey);
  }
}

class LockFreeTrieUniverses : public ::testing::TestWithParam<Key> {};

TEST_P(LockFreeTrieUniverses, DifferentialAgainstStdSet) {
  const Key u = GetParam();
  LockFreeBinaryTrie t(u);
  std::set<Key> ref;
  Xoshiro256 rng(static_cast<uint64_t>(u) * 11 + 1);
  for (int i = 0; i < 15000; ++i) {
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
        ASSERT_EQ(t.contains(k), ref.count(k) > 0) << "i=" << i;
        break;
      default:
        ASSERT_EQ(t.predecessor(k + 1), testutil::ref_predecessor(ref, k + 1))
            << "i=" << i << " y=" << k + 1;
        ASSERT_EQ(t.successor(k - 1), testutil::ref_successor(ref, k - 1))
            << "i=" << i << " y=" << k - 1;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Universes, LockFreeTrieUniverses,
                         ::testing::Values(1, 2, 3, 8, 17, 64, 1000, 1 << 14));

TEST(LockFreeTrieSeq, SearchIsConstantStepCount) {
  // O(1) worst-case Search: the number of instrumented shared reads per
  // contains() must not grow with the universe or the set size.
  for (Key u : {Key{64}, Key{1} << 12, Key{1} << 18}) {
    LockFreeBinaryTrie t(u);
    for (Key k = 0; k < 64; ++k) t.insert(k * (u / 64));
    StepCounts before = Stats::local();
    for (int i = 0; i < 100; ++i) (void)t.contains((i * 7) % u);
    StepCounts delta = Stats::local() - before;
    EXPECT_LE(delta.reads, 100u * 4) << "u=" << u;  // <= 4 reads per search
  }
}

TEST(LockFreeTrieSeq, EmbeddedPredecessorsRecordedOnDelete) {
  // White-box sanity: deletes run two embedded predecessor ops; results
  // must be consistent with the set at the time of the delete.
  LockFreeBinaryTrie t(64);
  t.insert(10);
  t.insert(20);
  t.erase(20);  // delPred for 20 sees {10,20}: predecessor(20) == 10
  EXPECT_EQ(t.predecessor(64), 10);
  t.erase(10);
  EXPECT_EQ(t.predecessor(64), kNoKey);
}

TEST(LockFreeTrieSeq, MemoryGrowsWithOpsNotUniverse) {
  // Update nodes grow with the ops, not the universe: per insert its INS
  // node, its key's dummy and at most one dummy per ancestor.
  const MemStats::ClassSnapshot before =
      MemStats::snapshot(MemClass::kUpdateNode);
  LockFreeBinaryTrie big(Key{1} << 22);
  for (Key k = 0; k < 100; ++k) big.insert(k * 37);
  EXPECT_LE(MemStats::snapshot(MemClass::kUpdateNode).acquired -
                before.acquired,
            100u * (big.core_for_test().b() + 2));
}

}  // namespace
}  // namespace lfbt
