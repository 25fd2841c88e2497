// The fused bidirectional embedded-query path: Stats-counter accounting
// (a Delete embeds exactly TWO fused queries), query-node recycling through
// EBR, deterministic ⊥-fallback fault injection where BOTH directions
// must recover through the SAME fused announcement, and Wing–Gong
// linearizability of delete-heavy mixed-direction histories driven
// through the fused delete path (flat and sharded).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "core/lockfree_trie.hpp"
#include "ebr_test_util.hpp"
#include "shard/sharded_trie.hpp"
#include "stress_util.hpp"
#include "sync/random.hpp"

namespace lfbt {
namespace {

// ---- Embedded-query accounting (the ISSUE 4 acceptance counter) -----------

TEST(FusedQuery, DeletePerformsExactlyTwoFusedQueries) {
  LockFreeBinaryTrie t(1 << 10);
  t.insert(100);
  t.insert(300);

  StepCounts before = Stats::local();
  t.erase(300);
  StepCounts delta = Stats::local() - before;
  EXPECT_EQ(delta.query_helpers, 2u);
  EXPECT_EQ(delta.fused_queries, 2u);

  // A delete of an absent key returns at l.183 and embeds nothing.
  before = Stats::local();
  t.erase(300);
  delta = Stats::local() - before;
  EXPECT_EQ(delta.query_helpers, 0u);
  EXPECT_EQ(delta.fused_queries, 0u);
}

TEST(FusedQuery, StandaloneQueriesRunOneHelperWithOneSideInert) {
  LockFreeBinaryTrie t(1 << 10);
  t.insert(42);
  StepCounts before = Stats::local();
  EXPECT_EQ(t.predecessor(100), 42);
  EXPECT_EQ(t.successor(0), 42);
  StepCounts delta = Stats::local() - before;
  EXPECT_EQ(delta.query_helpers, 2u);
  EXPECT_EQ(delta.fused_queries, 0u);
}

// ---- Query-node recycling through EBR --------------------------------------

TEST(FusedQuery, QueryNodesAreRecycledThroughEbr) {
  LockFreeBinaryTrie t(1 << 10);
  for (Key k = 0; k < 64; ++k) t.insert(k * 16);

  constexpr int kQueries = 20000;
  StepCounts before = Stats::local();
  Xoshiro256 rng(777);
  for (int i = 0; i < kQueries; ++i) {
    t.predecessor(static_cast<Key>(1 + rng.bounded(1 << 10)));
  }
  StepCounts delta = Stats::local() - before;
  EXPECT_EQ(delta.query_helpers, static_cast<uint64_t>(kQueries));
  // Without recycling every query would allocate a fresh node. With the
  // pool, allocations are bounded by the EBR sweep cadence (a small
  // batch per collect), not by the query count: well under 10% here.
  EXPECT_LT(delta.query_node_allocs, static_cast<uint64_t>(kQueries / 10));
}

TEST(FusedQuery, RecyclingPreservesSequentialAnswers) {
  // A long churn of updates + both-direction queries on one thread
  // recycles nodes constantly; answers must stay exact vs std::set.
  LockFreeBinaryTrie t(1 << 9);
  std::set<Key> ref;
  Xoshiro256 rng(778);
  for (int i = 0; i < 30000; ++i) {
    Key k = static_cast<Key>(rng.bounded(1 << 9));
    switch (rng.bounded(4)) {
      case 0:
        t.insert(k);
        ref.insert(k);
        break;
      case 1:
        t.erase(k);
        ref.erase(k);
        break;
      case 2: {
        auto it = ref.lower_bound(k + 1);
        Key want = it == ref.begin() ? kNoKey : *std::prev(it);
        ASSERT_EQ(t.predecessor(k + 1), want) << "i=" << i;
        break;
      }
      default: {
        auto it = ref.upper_bound(k - 1);
        ASSERT_EQ(t.successor(k - 1), it == ref.end() ? kNoKey : *it)
            << "i=" << i;
      }
    }
  }
}

TEST(FusedQuery, BothFallbacksRecoverThroughOneFusedAnnouncement) {
  // The Definition 5.1 adversary, both directions at once: a delete of 20
  // linearizes and crashes before DeleteBinaryTrie, so 20's subtree keeps
  // a stale 1 with both children 0 — every relaxed traversal through it
  // returns ⊥ forever, in both directions. The crashed delete left ONE
  // fused announcement pair; predecessor queries from above AND successor
  // queries from below must both recover through it (its notify list
  // feeds both directions' L1; delPred2/delSucc2 seed both TL graphs).
  LockFreeBinaryTrie t(64);
  t.insert(20);
  ASSERT_TRUE(t.stall_delete_for_test(20));
  ASSERT_FALSE(t.contains(20));

  TrieCore& core = t.core_for_test();
  EXPECT_TRUE(core.interpreted_bit(core.leaf(20) >> 1));  // stale 1
  EXPECT_FALSE(core.interpreted_bit(core.leaf(20)));

  // Empty set: both directions' fallbacks must answer -1.
  EXPECT_EQ(t.predecessor(21), kNoKey);
  EXPECT_EQ(t.successor(19), kNoKey);
  EXPECT_EQ(t.predecessor(64), kNoKey);
  EXPECT_EQ(t.successor(-1), kNoKey);

  // Completed updates on both sides of the poisoned subtree must reach
  // queries of the matching direction through the SAME stalled fused
  // announcement (their retracted U-ALL presence can't help).
  t.insert(5);
  t.insert(40);
  EXPECT_EQ(t.predecessor(21), 5);   // pred fallback: down-key recovery
  EXPECT_EQ(t.successor(19), 40);    // succ fallback: up-key recovery
  EXPECT_EQ(t.predecessor(20), 5);
  EXPECT_EQ(t.successor(20), 40);

  // Retract one side again; that direction must drop its candidate.
  t.erase(5);
  EXPECT_EQ(t.predecessor(21), kNoKey);
  EXPECT_EQ(t.successor(19), 40);

  // New updates on key 20 supersede the crashed op and repair the bits.
  t.insert(20);
  EXPECT_TRUE(t.contains(20));
  EXPECT_EQ(t.predecessor(21), 20);
  EXPECT_EQ(t.successor(19), 20);
}

TEST(FusedQuery, ChainedStalledFusedDeletesBothDirections) {
  // Two crashed fused deletes whose second-query results chain in BOTH
  // directions: delPred2 edges walk down-key, delSucc2 edges up-key, and
  // both chains come from the same two fused announcements.
  LockFreeBinaryTrie t(64);
  t.insert(3);
  t.insert(12);
  t.insert(20);
  t.insert(33);
  // Crash a delete of 20 (delPred2 = 12 with {3,12,33} remaining,
  // delSucc2 = 33), then of 12 (delPred2 = 3, delSucc2 = 33).
  ASSERT_TRUE(t.stall_delete_for_test(20));
  ASSERT_TRUE(t.stall_delete_for_test(12));
  EXPECT_FALSE(t.contains(20));
  EXPECT_FALSE(t.contains(12));
  // Predecessor queries above the poisoned subtrees surface 3.
  EXPECT_EQ(t.predecessor(21), 3);
  EXPECT_EQ(t.predecessor(13), 3);
  // Successor queries below them surface 33.
  EXPECT_EQ(t.successor(11), 33);
  EXPECT_EQ(t.successor(19), 33);
  EXPECT_EQ(t.successor(2), 3);
  EXPECT_EQ(t.predecessor(64), 33);
  EXPECT_EQ(t.successor(33), kNoKey);
}

TEST(FusedQuery, NotifyPushesOnePerLiveAnnouncement) {
  // The stalled delete leaves its two fused announcements in the P-ALL;
  // every insert of a fresh key pushes one notify node onto each.
  LockFreeBinaryTrie t(1 << 10);
  t.insert(500);
  ASSERT_TRUE(t.stall_delete_for_test(500));
  constexpr uint64_t kInserts = 50;
  StepCounts before = Stats::local();
  for (Key k = 0; k < static_cast<Key>(kInserts); ++k) t.insert(2 * k);
  StepCounts delta = Stats::local() - before;
  EXPECT_EQ(delta.notify_pushes, 2 * kInserts);
}

TEST(FusedQuery, StalledFusedDeleteUnderConcurrentQueries) {
  // Fault injection under live traffic: one fused announcement pair
  // stalls, then reader threads hammer both directions across the
  // poisoned subtree while a writer churns keys outside it. Readers
  // check window invariants (pinned keys below/above must keep being
  // found; the stalled key must never reappear).
  //
  // The crashed delete's two embedded announcements never retire, so
  // every one of the 6,000 writer updates pushes a notify node onto
  // each: the readers' fallbacks walk lists thousands of nodes long,
  // every notification kept exact (docs/DESIGN.md, "Notify lists").
  LockFreeBinaryTrie t(128);
  t.insert(5);    // pinned low
  t.insert(64);   // the victim
  t.insert(100);  // pinned high
  ASSERT_TRUE(t.stall_delete_for_test(64));
  ASSERT_FALSE(t.contains(64));

  std::atomic<bool> stop{false};
  std::atomic<bool> bad{false};
  std::thread writer([&] {
    Xoshiro256 rng(780);
    for (int i = 0; i < 6000 && !stop.load(); ++i) {
      Key k = 16 + static_cast<Key>(rng.bounded(32));  // churn band 16..47
      if (rng.bounded(2)) {
        t.insert(k);
      } else {
        t.erase(k);
      }
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 rng(781 + static_cast<uint64_t>(r));
      for (int i = 0; i < 2000 && !bad.load(); ++i) {
        // Predecessor from above the stalled subtree: must be >= 5,
        // never 64 (it was deleted), never kNoKey (5 is pinned).
        Key p = t.predecessor(65 + static_cast<Key>(rng.bounded(40)));
        if (p == 64 || p < 5) bad = true;
        // Successor from inside/below it: must be <= 100, never 64.
        Key s = t.successor(48 + static_cast<Key>(rng.bounded(40)));
        if (s == 64 || s == kNoKey || s > 100) bad = true;
      }
    });
  }
  for (auto& th : readers) th.join();
  stop = true;
  writer.join();
  EXPECT_FALSE(bad.load());
  // Quiescent: both directions still exact across the stale subtree.
  EXPECT_EQ(t.successor(63), 100);
  EXPECT_EQ(t.predecessor(128), 100);
  EXPECT_EQ(t.successor(100), kNoKey);
}

// ---- Wing–Gong through the fused delete path -------------------------------

// Delete-heavy mixed-direction histories on a tiny universe: same-key
// update races are the common case and every erase is a fused embedded
// pair — the exact history class ISSUE 4's tentpole must keep
// linearizable. (50% of ops are updates, half of them deletes.)
TEST(FusedQueryLinearizability, FlatDeleteHeavyMixedDirectionWingGong) {
  LockFreeBinaryTrie trie(8);
  testutil::StressSpec spec;
  spec.universe = 8;
  spec.threads = 4;
  spec.ops_per_round = 10;
  spec.rounds = 150;
  spec.pred_weight = 20;
  spec.succ_weight = 20;
  spec.contains_weight = 10;
  spec.seed = 4401;
  testutil::linearizability_stress(trie, spec);
}

// The same class at a universe where ⊥-fallbacks (concurrent deletes
// blocking the relaxed traversals) dominate over same-key CAS races —
// the fused fallback machinery itself under contention.
TEST(FusedQueryLinearizability, FlatFallbackHeavyWingGong) {
  LockFreeBinaryTrie trie(32);
  testutil::StressSpec spec;
  spec.universe = 32;
  spec.threads = 4;
  spec.ops_per_round = 12;
  spec.rounds = 120;
  spec.pred_weight = 20;
  spec.succ_weight = 20;
  spec.contains_weight = 10;
  spec.seed = 4402;
  testutil::linearizability_stress(trie, spec);
}

// Sharded composition: per-shard fused deletes racing cross-shard
// queries in both directions must stay one linearizable object.
TEST(FusedQueryLinearizability, ShardedDeleteHeavyMixedDirectionWingGong) {
  ShardedTrie trie(16, 4);
  testutil::StressSpec spec;
  spec.universe = 16;
  spec.threads = 4;
  spec.ops_per_round = 10;
  spec.rounds = 120;
  spec.pred_weight = 20;
  spec.succ_weight = 20;
  spec.contains_weight = 10;
  spec.seed = 4403;
  testutil::linearizability_stress(trie, spec);
}

}  // namespace
}  // namespace lfbt
