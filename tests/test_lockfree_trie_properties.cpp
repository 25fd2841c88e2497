// Parameterized property sweeps of the lock-free trie: every combination
// of (threads, universe, workload shape) must preserve the structural
// invariants — quiescent exactness, interpreted-bit consistency, and
// bounded update-node growth.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/lockfree_trie.hpp"
#include "reclaim/mem_stats.hpp"
#include "relaxed/relaxed_trie.hpp"
#include "set_test_util.hpp"
#include "sync/random.hpp"

namespace lfbt {
namespace {

struct SweepParam {
  int threads;
  Key universe;
  int pred_pct;  // remainder split between insert/erase
  uint64_t seed;
};

class TrieSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(TrieSweep, InvariantsHoldAfterConcurrentPhase) {
  const SweepParam p = GetParam();
  LockFreeBinaryTrie trie(p.universe);
  std::atomic<bool> bad{false};
  std::vector<std::thread> ts;
  for (int t = 0; t < p.threads; ++t) {
    ts.emplace_back([&, t] {
      Xoshiro256 rng(p.seed + static_cast<uint64_t>(t));
      for (int i = 0; i < 8000 && !bad.load(); ++i) {
        Key k = static_cast<Key>(rng.bounded(static_cast<uint64_t>(p.universe)));
        if (static_cast<int>(rng.bounded(100)) < p.pred_pct) {
          Key got = trie.predecessor(k + 1);
          if (got < kNoKey || got > k) bad = true;
        } else if (rng.bounded(2)) {
          trie.insert(k);
        } else {
          trie.erase(k);
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  ASSERT_FALSE(bad.load());

  // Quiescent: predecessor exact everywhere.
  testutil::quiescent_predecessor_exact(trie, p.universe);

  // Quiescent: interpreted bits equal the OR of their leaves (IB0/IB1).
  TrieCore& core = trie.core_for_test();
  if (p.universe <= 64) {
    for (uint64_t node = 1; node < core.leaf_base(); ++node) {
      ASSERT_EQ(core.interpreted_bit(node), core.quiescent_bit_reference(node))
          << "node " << node;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TrieSweep,
    ::testing::Values(SweepParam{2, 8, 25, 1000}, SweepParam{4, 8, 25, 1001},
                      SweepParam{8, 8, 25, 1002}, SweepParam{4, 64, 0, 1003},
                      SweepParam{4, 64, 50, 1004}, SweepParam{4, 64, 90, 1005},
                      SweepParam{8, 1024, 30, 1006},
                      SweepParam{2, 1 << 14, 30, 1007},
                      SweepParam{12, 4, 40, 1008}),
    [](const auto& info) {
      char name[64];
      std::snprintf(name, sizeof(name), "t%d_u%lld_p%d", info.param.threads,
                    static_cast<long long>(info.param.universe),
                    info.param.pred_pct);
      return std::string(name);
    });

TEST(TrieArenaGrowth, BoundedPerOperation) {
  // Space claim sanity: update-node acquisitions are O(ops), independent
  // of the universe size. An insert acquires its INS node, at most one
  // latest dummy for its key and at most one per ancestor that
  // insert_binary_trie visits (b of them); an erase acquires one DEL node.
  const MemStats::ClassSnapshot before =
      MemStats::snapshot(MemClass::kUpdateNode);
  LockFreeBinaryTrie trie(Key{1} << 20);
  Xoshiro256 rng(9);
  constexpr int kOps = 20000;
  for (int i = 0; i < kOps; ++i) {
    Key k = static_cast<Key>(rng.bounded(uint64_t{1} << 20));
    if (rng.bounded(2)) {
      trie.insert(k);
    } else {
      trie.erase(k);
    }
  }
  const MemStats::ClassSnapshot after =
      MemStats::snapshot(MemClass::kUpdateNode);
  EXPECT_LE(after.acquired - before.acquired,
            static_cast<uint64_t>(kOps) * (trie.core_for_test().b() + 2));
}

// Reads and erases of absent keys touch only untouched (null) latest and
// dNodePtr slots, which *are* the initial dummies: they acquire no update
// node.
template <class Trie>
void ExpectReadsReserveNothing() {
  const MemStats::ClassSnapshot before =
      MemStats::snapshot(MemClass::kUpdateNode);
  Trie trie(Key{1} << 20);
  Xoshiro256 rng(21);
  std::vector<Key> out;
  for (int i = 0; i < 4000; ++i) {
    const Key k = static_cast<Key>(rng.bounded(uint64_t{1} << 20));
    EXPECT_FALSE(trie.contains(k));
    EXPECT_EQ(trie.predecessor(k), kNoKey);
    EXPECT_EQ(trie.successor(k), kNoKey);
    out.clear();
    EXPECT_EQ(trie.range_scan(k, k + 4096, 16, out), 0u);
    trie.erase(k);
  }
  EXPECT_EQ(trie.predecessor(Key{1} << 20), kNoKey);
  EXPECT_EQ(trie.successor(-1), kNoKey);
  EXPECT_EQ(MemStats::snapshot(MemClass::kUpdateNode).acquired,
            before.acquired);
}

TEST(TrieArenaGrowth, ReadsReserveNothingLockFree) {
  ExpectReadsReserveNothing<LockFreeBinaryTrie>();
}

TEST(TrieArenaGrowth, ReadsReserveNothingRelaxed) {
  ExpectReadsReserveNothing<RelaxedBinaryTrie>();
}

TEST(TrieManyInstances, IndependentTriesDoNotInterfere) {
  // Process-wide pools and per-thread magazines must not leak state
  // across instances.
  for (int round = 0; round < 5; ++round) {
    LockFreeBinaryTrie a(256), b(256);
    std::thread ta([&] {
      for (Key k = 0; k < 256; k += 2) a.insert(k);
    });
    std::thread tb([&] {
      for (Key k = 1; k < 256; k += 2) b.insert(k);
    });
    ta.join();
    tb.join();
    for (Key k = 0; k < 256; ++k) {
      ASSERT_EQ(a.contains(k), k % 2 == 0);
      ASSERT_EQ(b.contains(k), k % 2 == 1);
    }
    ASSERT_EQ(a.predecessor(256), 254);
    ASSERT_EQ(b.predecessor(256), 255);
  }
}

}  // namespace
}  // namespace lfbt
