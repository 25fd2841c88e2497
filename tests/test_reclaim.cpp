// The reclamation subsystem (src/reclaim/): RecyclePool's carve/release/
// recycle discipline on private instantiations (per-thread magazines,
// their spill to the shared list, slot hand-over at thread exit, and a
// cross-thread no-double-hand-out churn), MemStats accounting and the
// per-slot counters under concurrency, steady-state footprint across
// whole structure lifetimes (every pool cycling, for the lock-free and
// the relaxed trie), and the churn-soak leak gate over the flat and
// sharded tries through the shared soak harness.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "core/lockfree_trie.hpp"
#include "ebr_test_util.hpp"
#include "reclaim/mem_stats.hpp"
#include "reclaim/node_pool.hpp"
#include "relaxed/relaxed_trie.hpp"
#include "shard/sharded_trie.hpp"
#include "sync/random.hpp"
#include "workload/soak.hpp"

namespace lfbt {
namespace {

// Pool instantiations private to this test binary: RecyclePool's statics
// (shared list, magazines, carve count) are per-Traits, so each Tag below
// is a pool no other test touches and allocated_count() counts only what
// its own test carves. MemStats is shared process-wide per class — every
// counter check below is a delta for that reason.
struct TestNode {
  std::atomic<TestNode*> link{nullptr};
  std::uint64_t payload = 0;
  std::atomic<int> owner{0};  // churn test: who holds the node, 0 = nobody
};
template <int Tag>
struct TestTraits {
  using Node = TestNode;
  static constexpr MemClass kClass = MemClass::kQueryNode;
  static Node* free_link(Node* n) { return n->link.load(); }
  static void set_free_link(Node* n, Node* next) { n->link.store(next); }
  static void construct(void* p) { ::new (p) TestNode(); }
};
template <int Tag>
using TestPool = reclaim::RecyclePool<TestTraits<Tag>>;

// A magazine spills at 2 * kSpill nodes and keeps kSpill.
constexpr int kSpill = static_cast<int>(TestPool<0>::kSpill);

TEST(RecyclePool, CarveThenRecycleAfterGrace) {
  using Pool = TestPool<0>;
  const MemStats::ClassSnapshot before =
      MemStats::snapshot(MemClass::kQueryNode);

  // Fresh pool: the first batch is carved from a new slab, blank.
  constexpr int kBatch = 100;
  std::vector<TestNode*> nodes;
  for (int i = 0; i < kBatch; ++i) {
    auto [n, recycled] = Pool::acquire();
    EXPECT_FALSE(recycled);
    EXPECT_EQ(n->payload, 0u);  // Traits::construct blanked it
    n->payload = static_cast<std::uint64_t>(i) + 1;
    nodes.push_back(n);
  }
  const std::size_t carved = Pool::allocated_count();
  EXPECT_EQ(carved, static_cast<std::size_t>(kBatch));

  // Release -> grace -> free list. Nodes must NOT be reusable before the
  // grace period elapses; draining the limbo (legal here: single thread,
  // no live guard) is what stocks this thread's magazine.
  for (TestNode* n : nodes) Pool::release(n);
  ebr::drain_unsafe();

  // The second batch is served entirely from recycled nodes — with their
  // stale fields intact (reset is the caller's job, by contract).
  std::set<TestNode*> seen;
  for (int i = 0; i < kBatch; ++i) {
    auto [n, recycled] = Pool::acquire();
    EXPECT_TRUE(recycled);
    EXPECT_GT(n->payload, 0u);                 // stale stamp survived
    EXPECT_TRUE(seen.insert(n).second);        // no double hand-out
    EXPECT_EQ(seen.count(n), 1u);
  }
  EXPECT_EQ(Pool::allocated_count(), carved);  // zero new carves

  // MemStats delta: one slab reserved, 2 * kBatch acquisitions of which
  // the second kBatch were recycled, kBatch releases.
  const MemStats::ClassSnapshot after =
      MemStats::snapshot(MemClass::kQueryNode);
  EXPECT_GE(after.bytes_reserved - before.bytes_reserved, 256u * 1024u);
  EXPECT_EQ(after.acquired - before.acquired, 2u * kBatch);
  EXPECT_EQ(after.recycled - before.recycled, static_cast<uint64_t>(kBatch));
  EXPECT_EQ(after.released - before.released, static_cast<uint64_t>(kBatch));
}

TEST(RecyclePool, SpilledNodesServeAnotherThreadWithoutCarving) {
  // One thread releases 3 * kSpill nodes and drains them: its magazine
  // spills kSpill to the shared list each time it reaches 2 * kSpill, so
  // 2 * kSpill end up shared and kSpill stay in its magazine. A second
  // thread (a different slot: the first is still alive) then gets
  // exactly the shared 2 * kSpill as recycled nodes, and carves only
  // after that.
  using Pool = TestPool<1>;
  constexpr int kReleased = 3 * kSpill;
  std::set<TestNode*> released;
  std::atomic<int> phase{0};
  std::thread producer([&] {
    std::vector<TestNode*> nodes;
    for (int i = 0; i < kReleased; ++i) nodes.push_back(Pool::acquire().node);
    released.insert(nodes.begin(), nodes.end());
    for (TestNode* n : nodes) Pool::release(n);
    ebr::drain_unsafe();  // no other thread holds a guard
    phase = 1;
    while (phase.load() != 2) std::this_thread::yield();
  });
  while (phase.load() != 1) std::this_thread::yield();
  const std::size_t carved = Pool::allocated_count();
  EXPECT_EQ(carved, static_cast<std::size_t>(kReleased));

  std::thread consumer([&] {
    std::set<TestNode*> got;
    for (int i = 0; i < 2 * kSpill; ++i) {
      auto [n, recycled] = Pool::acquire();
      EXPECT_TRUE(recycled) << "acquisition " << i;
      EXPECT_EQ(released.count(n), 1u);
      EXPECT_TRUE(got.insert(n).second);
    }
    EXPECT_EQ(Pool::allocated_count(), carved);  // zero new carves
    // The shared list is empty now; the rest sit in the producer's
    // magazine, out of this thread's reach.
    EXPECT_FALSE(Pool::acquire().recycled);
  });
  consumer.join();
  phase = 2;
  producer.join();
  EXPECT_EQ(Pool::allocated_count(), carved + 1);
}

TEST(RecyclePool, NextThreadInASlotInheritsItsMagazine) {
  // A thread exits with a stocked magazine; the next thread to claim the
  // same ThreadRegistry slot is served from it.
  using Pool = TestPool<2>;
  constexpr int kStocked = kSpill;  // under the spill mark: all stay local
  std::set<TestNode*> stocked;
  int first_slot = -1;
  std::thread first([&] {
    first_slot = ThreadRegistry::id();
    std::vector<TestNode*> nodes;
    for (int i = 0; i < kStocked; ++i) nodes.push_back(Pool::acquire().node);
    stocked.insert(nodes.begin(), nodes.end());
    for (TestNode* n : nodes) Pool::release(n);
    ebr::drain_unsafe();  // no other thread holds a guard
  });
  first.join();
  const std::size_t carved = Pool::allocated_count();

  std::thread next([&] {
    // Slots are claimed lowest-free-first and no other thread runs, so
    // this thread gets the slot `first` just gave up.
    ASSERT_EQ(ThreadRegistry::id(), first_slot);
    std::set<TestNode*> got;
    for (int i = 0; i < kStocked; ++i) {
      auto [n, recycled] = Pool::acquire();
      EXPECT_TRUE(recycled) << "acquisition " << i;
      EXPECT_EQ(stocked.count(n), 1u);
      EXPECT_TRUE(got.insert(n).second);
    }
  });
  next.join();
  EXPECT_EQ(Pool::allocated_count(), carved);  // zero new carves
}

TEST(RecyclePool, NodePoppedUnderALiveGuardStaysOffTheSharedList) {
  // The ABA rule: a node re-enters the shared list only after a grace
  // period that began after it was last popped from that list. Here a
  // thread holds a guard while this thread pops from the shared list and
  // then frees older retirements into its magazine; until the guard
  // ends, the shared list must hold exactly what it held before, less
  // the popped node. A magazine refilled from the shared list and then
  // spilled breaks this (the popped nodes come straight back).
  using Pool = TestPool<5>;
  // Stock: 2 * kSpill nodes on the shared list (the set `shared`), and
  // kSpill retired in this thread's limbo.
  std::vector<TestNode*> nodes;
  for (int i = 0; i < 3 * kSpill; ++i) nodes.push_back(Pool::acquire().node);
  for (TestNode* n : nodes) Pool::release(n);
  ebr::drain_unsafe();  // spills 2 * kSpill, keeps kSpill in the magazine
  std::set<TestNode*> shared(nodes.begin(), nodes.end());
  for (int i = 0; i < kSpill; ++i) {
    auto [n, recycled] = Pool::acquire();  // empties the magazine
    ASSERT_TRUE(recycled);
    shared.erase(n);
    Pool::release(n);
  }
  ASSERT_EQ(shared.size(), static_cast<std::size_t>(2 * kSpill));

  std::atomic<int> phase{0};
  std::thread holder([&] {
    // Advance the epoch past those retirements (this thread's own sweep
    // frees nothing of this pool), then hold a guard.
    for (int i = 0; i < 4; ++i) ebr::collect();
    ebr::Guard g;
    phase = 1;
    while (phase.load() != 2) std::this_thread::yield();
  });
  while (phase.load() != 1) std::this_thread::yield();

  auto [popped, recycled] = Pool::acquire();  // empty magazine: shared pop
  ASSERT_TRUE(recycled);
  ASSERT_EQ(shared.count(popped), 1u);
  ebr::collect();  // frees the kSpill retirements into this magazine

  std::thread reader([&] {
    std::size_t got = 0;
    for (;;) {
      auto [n, again] = Pool::acquire();
      if (!again) break;
      EXPECT_NE(n, popped) << "popped node back on the shared list";
      EXPECT_EQ(shared.count(n), 1u) << "node joined the shared list early";
      ++got;
    }
    EXPECT_EQ(got, shared.size() - 1);
  });
  reader.join();
  phase = 2;
  holder.join();
}

TEST(RecyclePool, ConcurrentChurnNeverHandsOutANodeTwice) {
  // Four threads acquire batches of random size and release them, so
  // every magazine repeatedly spills to the shared list and pops from it
  // while other threads do the same. Each holder claims a node's `owner`
  // word on acquire and gives it up before release: a node handed out
  // twice (the ABA a spill without a grace period would open) fails the
  // claim.
  using Pool = TestPool<3>;
  constexpr int kThreads = 4;
  constexpr int kRounds = 3000;
  std::atomic<int> doubles{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      Xoshiro256 rng(900 + t);
      std::vector<TestNode*> held;
      for (int r = 0; r < kRounds; ++r) {
        const int batch = 1 + static_cast<int>(rng.bounded(3 * kSpill));
        for (int i = 0; i < batch; ++i) {
          TestNode* n = Pool::acquire().node;
          int expected = 0;
          if (!n->owner.compare_exchange_strong(expected, t + 1)) ++doubles;
          held.push_back(n);
        }
        for (TestNode* n : held) {
          if (n->owner.load() != t + 1) ++doubles;
          n->owner.store(0);
          Pool::release(n);
        }
        held.clear();
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(doubles.load(), 0);
}

TEST(RecyclePool, CountersStayExactUnderConcurrentChurn) {
  // MemStats' event counters and ebr::pending() are per-slot single-
  // writer counters; their sums must stay exact while four threads count
  // at once.
  using Pool = TestPool<4>;
  constexpr int kThreads = 4;
  constexpr int kOps = 20000;
  ebr::drain_unsafe();  // empty every limbo: pending() starts at 0
  ASSERT_EQ(ebr::pending(), 0u);
  const MemStats::ClassSnapshot before =
      MemStats::snapshot(MemClass::kQueryNode);
  const std::size_t carved_before = Pool::allocated_count();

  static std::atomic<std::uint64_t> freed{0};
  freed = 0;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([] {
      for (int i = 0; i < kOps; ++i) Pool::release(Pool::acquire().node);
    });
  }
  for (auto& th : ts) th.join();
  const MemStats::ClassSnapshot after =
      MemStats::snapshot(MemClass::kQueryNode);
  const std::uint64_t total = static_cast<std::uint64_t>(kThreads) * kOps;
  EXPECT_EQ(after.acquired - before.acquired, total);
  EXPECT_EQ(after.released - before.released, total);
  EXPECT_EQ(after.recycled - before.recycled,
            total - (Pool::allocated_count() - carved_before));
  ebr::drain_unsafe();
  EXPECT_EQ(ebr::pending(), 0u);

  // pending() = retirements minus deleters run, summed over the slots.
  ts.clear();
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([] {
      for (int i = 0; i < kOps; ++i) {
        ebr::retire(nullptr, [](void*) { freed.fetch_add(1); });
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(ebr::pending(), total - freed.load());
  ebr::drain_unsafe();
  EXPECT_EQ(freed.load(), total);
  EXPECT_EQ(ebr::pending(), 0u);
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

// Create / churn / destroy whole tries in a loop. Every class the trie
// uses cycles through its pool: update nodes (latest dummies included)
// and, for the lock-free trie, notify and query nodes and announcement
// cells. After a warm-up lifetime establishes the high-water mark,
// further identical lifetimes must draw bytes from recycling, not from
// the OS.
template <class Trie>
void expect_lifetime_churn_steady() {
  auto churn_once = [] {
    Trie t(1 << 10);
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

  churn_once();  // warm-up: carve slabs up to the high-water mark
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

TEST(Reclaim, StructureLifetimeChurnReachesSteadyFootprint) {
  {
    SCOPED_TRACE("LockFreeBinaryTrie");
    expect_lifetime_churn_steady<LockFreeBinaryTrie>();
  }
  {
    SCOPED_TRACE("RelaxedBinaryTrie");
    expect_lifetime_churn_steady<RelaxedBinaryTrie>();
  }
}

template <class Set>
void expect_soak_tail_flat(Set& set, const SoakConfig& cfg) {
  const std::vector<SoakWindowSample> samples = churn_soak(set, cfg);
  ASSERT_EQ(samples.size(), static_cast<std::size_t>(cfg.windows));
  for (const SoakWindowSample& s : samples) {
    EXPECT_GT(s.ops, 0u);
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
