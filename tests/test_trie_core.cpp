// White-box tests of TrieCore: index arithmetic, lazy dummies, latest-list
// helpers, interpreted-bit transitions, and the InsertBinaryTrie /
// DeleteBinaryTrie stop/boundary protocol. Update nodes come from the
// tries' pools; MemStats' update-node class counts them.
#include "relaxed/trie_core.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "reclaim/mem_stats.hpp"
#include "sync/ebr.hpp"

namespace lfbt {
namespace {

TEST(TrieCoreTest, IndexArithmetic) {
  TrieCore core(16);  // b = 4
  EXPECT_EQ(core.b(), 4u);
  EXPECT_EQ(core.leaf_base(), 16u);
  EXPECT_EQ(core.leaf(0), 16u);
  EXPECT_EQ(core.leaf(15), 31u);
  EXPECT_EQ(TrieCore::parent(16), 8u);
  EXPECT_EQ(TrieCore::sibling(16), 17u);
  EXPECT_EQ(TrieCore::sibling(17), 16u);
  EXPECT_EQ(core.height(1), 4u);   // root
  EXPECT_EQ(core.height(2), 3u);
  EXPECT_EQ(core.height(16), 0u);  // leaf
  EXPECT_TRUE(core.is_leaf(16));
  EXPECT_FALSE(core.is_leaf(15));
}

TEST(TrieCoreTest, NonPowerOfTwoUniverseRoundsUp) {
  TrieCore core(100);
  EXPECT_EQ(core.b(), 7u);  // 2^7 = 128 >= 100
  EXPECT_EQ(core.leaf_base(), 128u);
}

TEST(TrieCoreTest, LazyDummiesMakeAllBitsZeroInitially) {
  const MemStats::ClassSnapshot before =
      MemStats::snapshot(MemClass::kUpdateNode);
  TrieCore core(64);
  for (uint64_t t = 1; t < 128; ++t) {
    EXPECT_FALSE(core.interpreted_bit(t)) << t;
  }
  for (Key y = 0; y <= 64; ++y) EXPECT_EQ(core.relaxed_predecessor(y), kNoKey);
  for (Key y = -1; y < 64; ++y) EXPECT_EQ(core.relaxed_successor(y), kNoKey);
  // Null slots are the dummies: reading them materialises nothing.
  EXPECT_EQ(MemStats::snapshot(MemClass::kUpdateNode).acquired,
            before.acquired);
}

TEST(TrieCoreTest, ReadLatestInstallsOneDummyPerKey) {
  TrieCore core(64);
  UpdateNode* a = core.read_latest(7);
  UpdateNode* b = core.read_latest(7);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a->key, 7);
  EXPECT_EQ(a->type, NodeType::kDel);
  EXPECT_EQ(a->status.load(), UpdateNode::kActive);
}

TEST(TrieCoreTest, ReadLatestRaceInstallsExactlyOneDummy) {
  // Every racer materialises a dummy; one CAS from null wins and the
  // losers hand theirs back to the pool, so one update node stays in use.
  ebr::drain_unsafe();
  const MemStats::ClassSnapshot before =
      MemStats::snapshot(MemClass::kUpdateNode);
  TrieCore core(64);
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<UpdateNode*> seen(kThreads, nullptr);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      ebr::Guard g;
      seen[t] = core.read_latest(9);
    });
  }
  for (auto& th : ts) th.join();
  for (UpdateNode* n : seen) EXPECT_EQ(n, seen[0]);
  EXPECT_EQ(core.peek_latest(9), seen[0]);
  ebr::drain_unsafe();
  const MemStats::ClassSnapshot after =
      MemStats::snapshot(MemClass::kUpdateNode);
  EXPECT_EQ(after.in_use(), before.in_use() + 1);
}

TEST(TrieCoreTest, FindLatestSkipsInactiveHead) {
  TrieCore core(64);
  UpdateNode* dummy = core.read_latest(3);
  auto* inactive = InsNodePool::acquire(3);
  inactive->latest_next.store(dummy);
  ASSERT_TRUE(core.cas_latest(3, dummy, inactive));
  // Head is inactive: FindLatest must return the activated predecessor.
  // (first_activated is only specified for *activated* nodes — Lemma 5.7 —
  // so it is not queried on `inactive` here.)
  EXPECT_EQ(core.find_latest(3), dummy);
  EXPECT_TRUE(core.first_activated(dummy));
  // Activate: now the head is the first activated node.
  inactive->status.store(UpdateNode::kActive);
  EXPECT_EQ(core.find_latest(3), inactive);
  EXPECT_TRUE(core.first_activated(inactive));
  // latestNext cleared: list is length 1.
  inactive->latest_next.store(nullptr);
  EXPECT_EQ(core.find_latest(3), inactive);
}

TEST(TrieCoreTest, InsertBinaryTrieRaisesWholePath) {
  TrieCore core(16);
  UpdateNode* dummy = core.read_latest(5);
  auto* ins = InsNodePool::acquire(5);
  ins->status.store(UpdateNode::kActive);
  ASSERT_TRUE(core.cas_latest(5, dummy, ins));
  core.insert_binary_trie(ins);
  // Path from leaf 5 to root all 1.
  for (uint64_t t = core.leaf(5); t >= 1; t >>= 1) {
    EXPECT_TRUE(core.interpreted_bit(t)) << t;
  }
  // Unrelated subtrees stay 0.
  EXPECT_FALSE(core.interpreted_bit(3));  // right half of the trie
}

TEST(TrieCoreTest, DeleteBinaryTrieLowersUntilSiblingSet) {
  TrieCore core(16);
  auto add = [&](Key k) {
    auto* n = InsNodePool::acquire(k);
    n->status.store(UpdateNode::kActive);
    ASSERT_TRUE(core.cas_latest(k, core.read_latest(k), n));
    core.insert_binary_trie(n);
  };
  add(5);
  add(7);  // shares the depth-2 ancestor with 5
  auto del = [&](Key k) {
    auto* d = DelNodePool::acquire(k, core.b());
    d->status.store(UpdateNode::kActive);
    d->latest_next.store(core.read_latest(k));
    ASSERT_TRUE(core.cas_latest(k, core.read_latest(k), d));
    core.delete_binary_trie(d);
  };
  del(5);
  // Leaf 5's path up to (excl.) the common ancestor with 7 is 0.
  EXPECT_FALSE(core.interpreted_bit(core.leaf(5)));
  EXPECT_FALSE(core.interpreted_bit(core.leaf(5) >> 1));
  // Common ancestor of 5 and 7 (depth 2 node covering 4..7) is still 1.
  EXPECT_TRUE(core.interpreted_bit(core.leaf(5) >> 2));
  EXPECT_TRUE(core.interpreted_bit(1));
  del(7);
  for (uint64_t t = 1; t < 32; ++t) {
    EXPECT_FALSE(core.interpreted_bit(t)) << t;
  }
}

TEST(TrieCoreTest, StopFlagHaltsDeleteBinaryTrie) {
  TrieCore core(16);
  auto* ins = InsNodePool::acquire(5);
  ins->status.store(UpdateNode::kActive);
  ASSERT_TRUE(core.cas_latest(5, core.read_latest(5), ins));
  core.insert_binary_trie(ins);
  auto* d = DelNodePool::acquire(5, core.b());
  d->status.store(UpdateNode::kActive);
  d->latest_next.store(ins);
  ASSERT_TRUE(core.cas_latest(5, ins, d));
  d->stop.store(true);  // a concurrent Insert told us to stop (l.65/69)
  core.delete_binary_trie(d);
  // The leaf bit flipped (latest[5] is the DEL node) but no internal node
  // was claimed: upper0Boundary untouched.
  EXPECT_EQ(d->upper0.load(), 0u);
  EXPECT_FALSE(core.interpreted_bit(core.leaf(5)));
}

TEST(TrieCoreTest, MinWriteToLower1BoundaryRevivesBit) {
  // Simulates InsertBinaryTrie's l.46 helping path: a DEL node that
  // claimed internal nodes has its lower1Boundary min-written, which
  // flips those bits back to 1 without touching dNodePtr.
  TrieCore core(16);
  auto add_then_del = [&](Key k) -> DelNode* {
    auto* n = InsNodePool::acquire(k);
    n->status.store(UpdateNode::kActive);
    EXPECT_TRUE(core.cas_latest(k, core.read_latest(k), n));
    core.insert_binary_trie(n);
    auto* dd = DelNodePool::acquire(k, core.b());
    dd->status.store(UpdateNode::kActive);
    dd->latest_next.store(n);
    EXPECT_TRUE(core.cas_latest(k, n, dd));
    core.delete_binary_trie(dd);
    return dd;
  };
  DelNode* d = add_then_del(5);
  EXPECT_FALSE(core.interpreted_bit(1));
  ASSERT_GE(d->upper0.load(), 1u);
  // Min-write height 1: every claimed node at height >= 1 reads 1 again.
  d->lower1.min_write(1, std::memory_order_seq_cst);
  EXPECT_TRUE(core.interpreted_bit(core.leaf(5) >> 1));
  EXPECT_TRUE(core.interpreted_bit(1));
  // The leaf still reads 0 (it depends on latest[5], a DEL node).
  EXPECT_FALSE(core.interpreted_bit(core.leaf(5)));
}

TEST(TrieCoreTest, RelaxedPredecessorOnCoreDirectly) {
  TrieCore core(16);
  auto add = [&](Key k) {
    auto* n = InsNodePool::acquire(k);
    n->status.store(UpdateNode::kActive);
    ASSERT_TRUE(core.cas_latest(k, core.read_latest(k), n));
    core.insert_binary_trie(n);
  };
  EXPECT_EQ(core.relaxed_predecessor(16), kNoKey);
  add(2);
  add(9);
  EXPECT_EQ(core.relaxed_predecessor(16), 9);
  EXPECT_EQ(core.relaxed_predecessor(9), 2);
  EXPECT_EQ(core.relaxed_predecessor(2), kNoKey);
  EXPECT_EQ(core.relaxed_successor(-1), 2);
  EXPECT_EQ(core.relaxed_successor(2), 9);
  EXPECT_EQ(core.relaxed_successor(9), kNoKey);
}

}  // namespace
}  // namespace lfbt
