// The reclamation subsystem (src/reclaim/): RecyclePool's carve/release/
// recycle discipline on a private instantiation, MemStats accounting,
// ChunkStore retire-and-reuse, steady-state footprint across whole
// structure lifetimes (arena chunks and every pool cycling), and the
// churn-soak leak gate over the flat and sharded tries through the
// shared soak harness.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <vector>

#include "core/lockfree_trie.hpp"
#include "ebr_test_util.hpp"
#include "reclaim/chunk_retire.hpp"
#include "reclaim/mem_stats.hpp"
#include "reclaim/node_pool.hpp"
#include "shard/sharded_trie.hpp"
#include "sync/random.hpp"
#include "workload/soak.hpp"

namespace lfbt {
namespace {

// A pool instantiation private to this test binary: RecyclePool's statics
// are per-Traits, so allocated_count() here counts only what these tests
// carve. MemStats is shared process-wide per class — every counter check
// below is a delta for that reason.
struct TestNode {
  std::atomic<TestNode*> link{nullptr};
  std::uint64_t payload = 0;
};
struct TestTraits {
  using Node = TestNode;
  static constexpr MemClass kClass = MemClass::kQueryNode;
  static Node* free_link(Node* n) { return n->link.load(); }
  static void set_free_link(Node* n, Node* next) { n->link.store(next); }
  static void construct(void* p) { ::new (p) TestNode(); }
};
using TestPool = reclaim::RecyclePool<TestTraits>;

TEST(RecyclePool, CarveThenRecycleAfterGrace) {
  const MemStats::ClassSnapshot before =
      MemStats::snapshot(TestTraits::kClass);

  // Fresh pool: the first batch is carved from a new slab, blank.
  constexpr int kBatch = 100;
  std::vector<TestNode*> nodes;
  for (int i = 0; i < kBatch; ++i) {
    auto [n, recycled] = TestPool::acquire();
    EXPECT_FALSE(recycled);
    EXPECT_EQ(n->payload, 0u);  // Traits::construct blanked it
    n->payload = static_cast<std::uint64_t>(i) + 1;
    nodes.push_back(n);
  }
  const std::size_t carved = TestPool::allocated_count();
  EXPECT_EQ(carved, static_cast<std::size_t>(kBatch));

  // Release -> grace -> free list. Nodes must NOT be reusable before the
  // grace period elapses; draining the limbo (legal here: single thread,
  // no live guard) is what stocks the free list.
  for (TestNode* n : nodes) TestPool::release(n);
  ebr::drain_unsafe();

  // The second batch is served entirely from recycled nodes — with their
  // stale fields intact (reset is the caller's job, by contract).
  std::set<TestNode*> seen;
  for (int i = 0; i < kBatch; ++i) {
    auto [n, recycled] = TestPool::acquire();
    EXPECT_TRUE(recycled);
    EXPECT_GT(n->payload, 0u);                 // stale stamp survived
    EXPECT_TRUE(seen.insert(n).second);        // no double hand-out
    EXPECT_EQ(seen.count(n), 1u);
  }
  EXPECT_EQ(TestPool::allocated_count(), carved);  // zero new carves

  // MemStats delta: one slab reserved, 2 * kBatch acquisitions of which
  // the second kBatch were recycled, kBatch releases.
  const MemStats::ClassSnapshot after = MemStats::snapshot(TestTraits::kClass);
  EXPECT_GE(after.bytes_reserved - before.bytes_reserved, 256u * 1024u);
  EXPECT_EQ(after.acquired - before.acquired, 2u * kBatch);
  EXPECT_EQ(after.recycled - before.recycled, static_cast<uint64_t>(kBatch));
  EXPECT_EQ(after.released - before.released, static_cast<uint64_t>(kBatch));
}

TEST(MemStats, CountersAndDerivedGauges) {
  const MemStats::ClassSnapshot before = MemStats::snapshot(MemClass::kAnnCell);
  const std::uint64_t total_before = Stats::memory().total_reserved();

  MemStats::add_reserved(MemClass::kAnnCell, 4096);
  MemStats::on_acquire(MemClass::kAnnCell, /*recycled=*/false);
  MemStats::on_acquire(MemClass::kAnnCell, /*recycled=*/true);
  MemStats::on_acquire(MemClass::kAnnCell, /*recycled=*/true);
  MemStats::on_release(MemClass::kAnnCell);

  const MemStats::ClassSnapshot after = MemStats::snapshot(MemClass::kAnnCell);
  EXPECT_EQ(after.bytes_reserved - before.bytes_reserved, 4096u);
  EXPECT_EQ(after.acquired - before.acquired, 3u);
  EXPECT_EQ(after.recycled - before.recycled, 2u);
  EXPECT_EQ(after.released - before.released, 1u);
  EXPECT_EQ(after.in_use(), after.acquired - after.released);
  EXPECT_EQ(Stats::memory().total_reserved() - total_before, 4096u);

  // in_use() is a clamped gauge, never an underflowed huge number.
  MemStats::ClassSnapshot s;
  s.acquired = 1;
  s.released = 3;
  EXPECT_EQ(s.in_use(), 0u);
}

TEST(ChunkStore, RetiredChunkIsReusedForTheNextFit) {
  using reclaim::ChunkStore;
  const MemStats::ClassSnapshot before =
      MemStats::snapshot(MemClass::kArenaChunk);

  ChunkStore::Chunk* c = ChunkStore::acquire(1000);
  ASSERT_NE(c, nullptr);
  EXPECT_GE(c->payload, 1000u);
  EXPECT_EQ(c->payload & (c->payload - 1), 0u);  // power-of-two rounding

  // Retire, flush the grace period, re-request a size the same bucket
  // serves: the store must hand the SAME chunk back (LIFO bucket, and we
  // just pushed it).
  ChunkStore::release(c);
  ebr::drain_unsafe();
  ChunkStore::Chunk* again = ChunkStore::acquire(900);
  EXPECT_EQ(again, c);

  const MemStats::ClassSnapshot after =
      MemStats::snapshot(MemClass::kArenaChunk);
  EXPECT_EQ(after.acquired - before.acquired, 2u);
  EXPECT_EQ(after.recycled - before.recycled, 1u);
  EXPECT_EQ(after.released - before.released, 1u);
  ChunkStore::release(again);  // leave no dangling ownership
}

TEST(Reclaim, StructureLifetimeChurnReachesSteadyFootprint) {
  // Create / churn / destroy whole tries in a loop. Every class cycles:
  // arena chunks retire to the ChunkStore at trie destruction, update /
  // notify / query nodes and announcement cells flow through their
  // pools. After a warm-up lifetime establishes the high-water mark,
  // further identical lifetimes must draw bytes from recycling, not from
  // the OS.
  auto churn_once = [] {
    LockFreeBinaryTrie t(1 << 10);
    Xoshiro256 rng(4242);  // same seed: identical per-lifetime demand
    for (int i = 0; i < 4000; ++i) {
      const Key k = static_cast<Key>(rng.bounded(1 << 10));
      switch (rng.bounded(5)) {
        case 0:
        case 1:
          t.insert(k);
          break;
        case 2:
          t.erase(k);
          break;
        case 3:
          t.predecessor(k + 1);
          break;
        default:
          t.successor(k - 1);
      }
    }
  };

  churn_once();  // warm-up: carve slabs/chunks up to the high-water mark
  ebr::drain_unsafe();
  const std::uint64_t reserved_warm = Stats::memory().total_reserved();

  for (int round = 0; round < 4; ++round) {
    churn_once();
    ebr::drain_unsafe();
  }
  const std::uint64_t reserved_after = Stats::memory().total_reserved();
  // Slack: one pool slab. EBR timing can shift which acquisition crosses
  // a slab boundary; four lifetimes of growth would be far larger.
  EXPECT_LE(reserved_after, reserved_warm + 256u * 1024u)
      << "structure-lifetime churn keeps reserving fresh memory";
}

template <class Set>
void expect_soak_tail_flat(Set& set, const SoakConfig& cfg) {
  const std::vector<SoakWindowSample> samples = churn_soak(set, cfg);
  ASSERT_EQ(samples.size(), static_cast<std::size_t>(cfg.windows));
  for (const SoakWindowSample& s : samples) {
    EXPECT_GT(s.ops, 0u);
    EXPECT_GT(s.structure_bytes, 0u);  // the trie reports its arena
    EXPECT_GT(s.pool_bytes, 0u);       // pools saw traffic
  }
  const SoakWindowSample& a = samples[samples.size() - 2];
  const SoakWindowSample& b = samples.back();
  EXPECT_TRUE(soak_tail_is_flat(samples))
      << "last two windows: structure bytes " << a.structure_bytes << " -> "
      << b.structure_bytes << ", pool bytes " << a.pool_bytes << " -> "
      << b.pool_bytes << "\n"
      << describe(samples);
}

TEST(Reclaim, ChurnSoakSmokeTailIsFlat) {
  // The leak gate at unit-test scale, over three configurations: the
  // update-heavy and the balanced (query-carrying, so the P-ALL/notify
  // machinery stays hot) mix on the flat trie, and update-heavy on
  // ShardedTrie with S = 8.
  struct Case {
    const char* name;
    OpMix mix;
    int shards;  // 0: the flat LockFreeBinaryTrie
  };
  for (const Case& c : {Case{"flat update-heavy", kUpdateHeavy, 0},
                        Case{"flat balanced", kBalanced, 0},
                        Case{"sharded S=8 update-heavy", kUpdateHeavy, 8}}) {
    SCOPED_TRACE(c.name);
    SoakConfig cfg;
    cfg.threads = 2;
    cfg.windows = 4;
    cfg.ops_per_thread_per_window = 8000;
    cfg.universe = 1 << 10;
    cfg.mix = c.mix;
    cfg.shards = c.shards;
    if (c.shards == 0) {
      LockFreeBinaryTrie t(cfg.universe);
      expect_soak_tail_flat(t, cfg);
    } else {
      ShardedTrie t(cfg.universe, c.shards);
      expect_soak_tail_flat(t, cfg);
    }
  }
}

}  // namespace
}  // namespace lfbt
