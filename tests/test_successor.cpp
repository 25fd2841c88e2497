// Successor queries on the sequential reference, the relaxed, core and
// sharded tries, checked against std::set. The core trie's
// successor is native and symmetric (core/lockfree_trie.hpp): the U-ALL
// position / directional-notification machinery mirrors the paper's
// predecessor proof inside one structure, so mixed pred+succ histories —
// including the same-key update races the retired two-view composite
// could not linearize — are checked here with full Wing–Gong. The key-mirrored
// MirroredTrie survives as an independent oracle (its successor runs the
// *predecessor* helper on reflected keys) and is cross-checked against
// the native path.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "baselines/seq_binary_trie.hpp"
#include "core/lockfree_trie.hpp"
#include "ebr_test_util.hpp"
#include "query/mirrored_trie.hpp"
#include "relaxed/relaxed_trie.hpp"
#include "shard/sharded_trie.hpp"
#include "stress_util.hpp"
#include "sync/random.hpp"
#include "verify/oracle.hpp"

namespace lfbt {
namespace {

Key ref_successor(const std::set<Key>& s, Key y) {
  auto it = s.upper_bound(y);
  return it == s.end() ? kNoKey : *it;
}

template <class Set, class Succ>
void successor_differential(Set& set, Succ succ, Key universe, int ops,
                            uint64_t seed) {
  std::set<Key> ref;
  Xoshiro256 rng(seed);
  for (int i = 0; i < ops; ++i) {
    Key k = static_cast<Key>(rng.bounded(static_cast<uint64_t>(universe)));
    switch (rng.bounded(3)) {
      case 0:
        set.insert(k);
        ref.insert(k);
        break;
      case 1:
        set.erase(k);
        ref.erase(k);
        break;
      default: {
        Key y = k - 1;  // in [-1, u-1)
        ASSERT_EQ(succ(set, y), ref_successor(ref, y)) << "i=" << i << " y=" << y;
      }
    }
  }
}

auto plain_succ = [](auto& s, Key y) { return s.successor(y); };

TEST(Successor, SeqBinaryTrie) {
  SeqBinaryTrie t(1 << 10);
  successor_differential(t, plain_succ, 1 << 10, 20000, 201);
}

TEST(Successor, RelaxedTrieSequentialIsExact) {
  RelaxedBinaryTrie t(1 << 10);
  successor_differential(
      t, [](auto& s, Key y) { return s.relaxed_successor(y); }, 1 << 10, 20000,
      202);
}

TEST(Successor, EdgeCases) {
  SeqBinaryTrie t(64);
  EXPECT_EQ(t.successor(-1), kNoKey);
  t.insert(0);
  EXPECT_EQ(t.successor(-1), 0);
  EXPECT_EQ(t.successor(0), kNoKey);
  t.insert(63);
  EXPECT_EQ(t.successor(0), 63);
  EXPECT_EQ(t.successor(62), 63);
  EXPECT_EQ(t.successor(63 - 64), 0);  // y = -1 again
}

// ---- The native symmetric successor of the core trie ----------------------

TEST(Successor, LockFreeBinaryTrieNative) {
  LockFreeBinaryTrie t(1 << 10);
  successor_differential(t, plain_succ, 1 << 10, 20000, 209);
}

TEST(Successor, NativeRangeScanWalk) {
  // The core trie's own range_scan (successor walk) against std::set.
  LockFreeBinaryTrie t(1 << 9);
  std::set<Key> ref;
  Xoshiro256 rng(230);
  for (int i = 0; i < 400; ++i) {
    Key k = static_cast<Key>(rng.bounded(1 << 9));
    t.insert(k);
    ref.insert(k);
  }
  for (int i = 0; i < 200; ++i) {
    Key lo = static_cast<Key>(rng.bounded(1 << 9));
    Key hi = lo + static_cast<Key>(rng.bounded(64));
    std::vector<Key> got;
    t.range_scan(lo, hi, 16, got);
    std::vector<Key> want;
    for (auto it = ref.lower_bound(lo); it != ref.end() && *it <= hi && want.size() < 16; ++it) {
      want.push_back(*it);
    }
    ASSERT_EQ(got, want) << "lo=" << lo << " hi=" << hi;
  }
}

TEST(Successor, NativeBothDirectionsAgree) {
  // Both query directions must answer consistently with one std::set
  // reference: a regression net for the directional code paths.
  LockFreeBinaryTrie t(1 << 9);
  std::set<Key> ref;
  Xoshiro256 rng(212);
  for (int i = 0; i < 20000; ++i) {
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
      case 2:
        ASSERT_EQ(t.successor(k - 1), ref_successor(ref, k - 1)) << "i=" << i;
        break;
      default: {
        auto it = ref.lower_bound(k + 1);
        Key want = it == ref.begin() ? kNoKey : *std::prev(it);
        ASSERT_EQ(t.predecessor(k + 1), want) << "i=" << i;
      }
    }
  }
}

// The key-mirrored oracle: successor through the predecessor helper.
TEST(Successor, MirroredTrie) {
  MirroredTrie t(1 << 10);
  successor_differential(t, plain_succ, 1 << 10, 20000, 210);
}

TEST(Successor, ShardedTrie) {
  ShardedTrie a(256, 8);
  successor_differential(a, plain_succ, 256, 20000, 213);
  ShardedTrie b(100, 7);  // non-dividing shard width
  successor_differential(b, plain_succ, 100, 20000, 214);
  ShardedTrie c(32, 32);  // width-1 shards: pure cross-shard walking
  successor_differential(c, plain_succ, 32, 20000, 215);
}

TEST(Successor, ShardedTrieShardBoundaries) {
  // Universe 64, width 8: boundaries at 8, 16, ..., 56 — the mirror image
  // of ShardedTriePredecessor.ShardBoundaries.
  ShardedTrie t(64, 8);
  for (Key k : {7, 8, 15, 16, 31, 32, 55, 56}) t.insert(k);
  // Query exactly below a boundary: answer lives in the shard above.
  EXPECT_EQ(t.successor(7), 8);
  EXPECT_EQ(t.successor(16), 31);
  EXPECT_EQ(t.successor(32), 55);
  // Query at a boundary key: answer is within the same shard.
  EXPECT_EQ(t.successor(8), 15);
  EXPECT_EQ(t.successor(15), 16);
  // Query inside an empty shard walks up across several shards.
  EXPECT_EQ(t.successor(33), 55);
  EXPECT_EQ(t.successor(-1), 7);
  EXPECT_EQ(t.successor(56), kNoKey);
  EXPECT_EQ(t.successor(63), kNoKey);
}

TEST(Successor, ShardedTrieAllUpperShardsEmpty) {
  ShardedTrie t(64, 8);
  t.insert(1);
  t.insert(3);
  for (Key y = 3; y < 64; ++y) {
    EXPECT_EQ(t.successor(y), kNoKey) << "y=" << y;
  }
  EXPECT_EQ(t.successor(-1), 1);
  EXPECT_EQ(t.successor(1), 3);
  EXPECT_EQ(t.successor(2), 3);
}

TEST(Successor, ShardedTrieExhaustiveAgainstReference) {
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
    for (Key y = -1; y < 100; ++y) {
      ASSERT_EQ(t.successor(y), ref_successor(ref, y))
          << "pattern size " << pattern.size() << " y=" << y;
    }
  }
}

// ---- Concurrent correctness of the symmetric machinery --------------------

// THE acceptance test of the native symmetric successor: the exact
// history class that was NOT linearizable under the retired two-view
// design — updates of the *same key* racing while readers interleave
// predecessor and successor queries. Universe 8 makes same-key collisions
// the common case (4 threads, 8 keys); under the two-view composite the
// insert/erase race could linearize in opposite orders in the two views
// and a pred+succ reader pair would observe contradictory states. One
// trie, one abstract state: full Wing–Gong must now admit every round.
TEST(SuccessorLinearizability, NativeMixedDirectionSameKeyRace) {
  LockFreeBinaryTrie trie(8);
  testutil::StressSpec spec;
  spec.universe = 8;
  spec.threads = 4;
  spec.ops_per_round = 10;
  spec.rounds = 150;
  spec.pred_weight = 20;
  spec.succ_weight = 20;
  spec.contains_weight = 10;
  spec.seed = 2261;
  testutil::linearizability_stress(trie, spec);
}

// The same mixed-direction check at a slightly larger universe, where
// the ⊥-fallback paths (concurrent deletes blocking the relaxed
// traversals) fire more often than same-key CAS races.
TEST(SuccessorLinearizability, NativeMixedDirectionWingGong) {
  LockFreeBinaryTrie trie(32);
  testutil::StressSpec spec;
  spec.universe = 32;
  spec.threads = 4;
  spec.ops_per_round = 12;
  spec.rounds = 120;
  spec.pred_weight = 20;
  spec.succ_weight = 20;
  spec.contains_weight = 10;
  spec.seed = 2262;
  testutil::linearizability_stress(trie, spec);
}

// Sharded composition of the native successor: mixed-direction histories
// across shard boundaries (universe 16 over 4 shards, same-key races
// included) must stay one linearizable object.
TEST(SuccessorLinearizability, ShardedMixedDirectionWingGong) {
  ShardedTrie trie(16, 4);
  testutil::StressSpec spec;
  spec.universe = 16;
  spec.threads = 4;
  spec.ops_per_round = 10;
  spec.rounds = 120;
  spec.pred_weight = 20;
  spec.succ_weight = 20;
  spec.contains_weight = 10;
  spec.seed = 2263;
  testutil::linearizability_stress(trie, spec);
}

// MirroredTrie's updates and successor all read/write ONE inner trie, so
// full Wing–Gong checking applies — this keeps the oracle honest: its
// successor exercises the *predecessor* helper on reflected keys, a code
// path disjoint from the native successor's U-ALL position machinery.
TEST(SuccessorLinearizability, MirroredTrieWingGong) {
  MirroredTrie trie(16);
  testutil::StressSpec spec;
  spec.universe = 16;
  spec.threads = 4;
  spec.ops_per_round = 10;
  spec.rounds = 120;
  spec.pred_weight = 0;
  spec.succ_weight = 40;
  spec.contains_weight = 20;
  spec.seed = 2161;
  testutil::linearizability_stress(trie, spec);
}

// Single-writer interval oracle: one writer's program order pins the
// abstract-state timeline exactly, giving a cheap high-frequency check
// that complements the windowed Wing–Gong rounds above (historically
// this was the strongest *sound* check for the retired two-view
// composites; it survives because it probes far more reader interleavings
// per second than full history checking can).
template <class Set>
void single_writer_successor_oracle(Set& set, Key universe, int readers,
                                    int writer_ops, int reads_per_thread,
                                    uint64_t seed) {
  HistoryClock clock;
  SingleWriterOracle oracle;
  std::vector<std::vector<SingleWriterOracle::Query>> logs(readers);
  std::atomic<bool> stop{false};
  std::vector<std::thread> ts;
  for (int r = 0; r < readers; ++r) {
    ts.emplace_back([&, r] {
      Xoshiro256 rng(seed + 100 + static_cast<uint64_t>(r));
      for (int i = 0; i < reads_per_thread && !stop.load(); ++i) {
        Key y = static_cast<Key>(rng.bounded(static_cast<uint64_t>(universe))) - 1;
        SingleWriterOracle::reader_successor_query(set, y, clock, logs[r]);
      }
    });
  }
  Xoshiro256 rng(seed);
  for (int i = 0; i < writer_ops; ++i) {
    Key k = static_cast<Key>(rng.bounded(static_cast<uint64_t>(universe)));
    oracle.writer_apply(set, rng.bounded(2) ? OpKind::kInsert : OpKind::kErase,
                        k, clock);
  }
  stop = true;
  for (auto& th : ts) th.join();
  for (int r = 0; r < readers; ++r) {
    ASSERT_EQ(oracle.validate(logs[r]), -1)
        << "reader " << r << " observed a non-linearizable successor";
  }
}

TEST(SuccessorLinearizability, ShardedTrieSingleWriterOracle) {
  ShardedTrie t(48, 6);
  single_writer_successor_oracle(t, 48, /*readers=*/3, /*writer_ops=*/3000,
                                 /*reads_per_thread=*/4000, 218);
}

TEST(SuccessorLinearizability, NativeSingleWriterOracle) {
  LockFreeBinaryTrie t(48);
  single_writer_successor_oracle(t, 48, /*readers=*/3, /*writer_ops=*/3000,
                                 /*reads_per_thread=*/4000, 219);
}

// Native successor vs the MirroredTrie oracle under single-writer churn:
// one writer applies every update to both structures (so both follow the
// same abstract-state timeline), readers hammer successor on each, and
// both answer streams must validate against the one Wing–Gong-grade
// interval oracle — two independent implementations of the same
// linearizable specification, sharing no direction-specific code, agree
// up to linearizability while updates are in flight and exactly at every
// quiescent point.
TEST(SuccessorLinearizability, NativeAgreesWithMirroredOracleUnderChurn) {
  constexpr Key kU = 48;
  LockFreeBinaryTrie native(kU);
  MirroredTrie mirrored(kU);

  for (int round = 0; round < 3; ++round) {
    HistoryClock clock;
    SingleWriterOracle oracle = [&] {
      uint64_t state = 0;
      for (Key k = 0; k < kU; ++k) {
        if (native.contains(k)) state |= uint64_t{1} << k;
      }
      return SingleWriterOracle(state);
    }();
    constexpr int kReaders = 3;
    std::vector<std::vector<SingleWriterOracle::Query>> native_logs(kReaders);
    std::vector<std::vector<SingleWriterOracle::Query>> mirror_logs(kReaders);
    std::atomic<bool> stop{false};
    std::vector<std::thread> ts;
    for (int r = 0; r < kReaders; ++r) {
      ts.emplace_back([&, r] {
        Xoshiro256 rng(2301 + static_cast<uint64_t>(100 * round + r));
        for (int i = 0; i < 3000 && !stop.load(); ++i) {
          Key y = static_cast<Key>(rng.bounded(kU)) - 1;
          SingleWriterOracle::reader_successor_query(native, y, clock,
                                                     native_logs[r]);
          SingleWriterOracle::reader_successor_query(mirrored, y, clock,
                                                     mirror_logs[r]);
        }
      });
    }
    // Apply each update to both structures inside ONE oracle version: the
    // version's (inv, res) interval brackets both physical updates, so
    // interval validation stays sound for readers of either structure.
    struct BothViews {
      LockFreeBinaryTrie& a;
      MirroredTrie& b;
      void insert(Key k) { a.insert(k); b.insert(k); }
      void erase(Key k) { a.erase(k); b.erase(k); }
    } both{native, mirrored};
    Xoshiro256 rng(2300 + static_cast<uint64_t>(round));
    for (int i = 0; i < 2000; ++i) {
      Key k = static_cast<Key>(rng.bounded(kU));
      oracle.writer_apply(both, rng.bounded(2) ? OpKind::kInsert : OpKind::kErase,
                          k, clock);
    }
    stop = true;
    for (auto& th : ts) th.join();
    for (int r = 0; r < kReaders; ++r) {
      ASSERT_EQ(oracle.validate(native_logs[r]), -1)
          << "round " << round << ": native successor reader " << r;
      ASSERT_EQ(oracle.validate(mirror_logs[r]), -1)
          << "round " << round << ": mirrored successor reader " << r;
    }
    // Quiescent agreement: exact equality, not just up-to-linearization.
    for (Key y = -1; y < kU; ++y) {
      ASSERT_EQ(native.successor(y), mirrored.successor(y))
          << "round " << round << " y=" << y;
    }
  }
}

TEST(Successor, ShardedTrieQuiescentExactAfterChurn) {
  // Each thread owns a disjoint 128-key range offset by 37 so the ranges
  // straddle the width-128 shard boundaries; quiescent successor answers
  // must be exact afterwards. (Under the retired two-view design this
  // test also needed the no-same-key-race precondition to guarantee view
  // re-convergence; the native successor needs no such caveat — see the
  // mixed-direction Wing–Gong tests above for the racing case.)
  ShardedTrie t(Key{1} << 10, 8);
  std::vector<std::thread> ts;
  for (int w = 0; w < 7; ++w) {
    ts.emplace_back([&t, w] {
      Xoshiro256 rng(219 + static_cast<uint64_t>(w));
      const Key base = 37 + static_cast<Key>(w) * 128;
      for (int i = 0; i < 20000; ++i) {
        Key k = base + static_cast<Key>(rng.bounded(128));
        if (rng.bounded(2)) {
          t.insert(k);
        } else {
          t.erase(k);
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  std::set<Key> contents;
  for (Key k = 0; k < (Key{1} << 10); ++k) {
    if (t.contains(k)) contents.insert(k);
  }
  for (Key y = -1; y < (Key{1} << 10); ++y) {
    ASSERT_EQ(t.successor(y), ref_successor(contents, y)) << "y=" << y;
  }
}

TEST(Successor, RelaxedTrieMinQueryUnderHighChurn) {
  // Churn on high keys only; successor(-1) must keep finding the pinned
  // minimum (never ⊥, since no update has a key between -1 and 3).
  RelaxedBinaryTrie t(128);
  t.insert(3);
  std::atomic<bool> stop{false};
  std::atomic<bool> bad{false};
  std::thread churn([&] {
    Xoshiro256 rng(209);
    while (!stop.load()) {
      Key k = 64 + static_cast<Key>(rng.bounded(64));
      if (rng.bounded(2)) {
        t.insert(k);
      } else {
        t.erase(k);
      }
    }
  });
  for (int i = 0; i < 30000; ++i) {
    if (t.relaxed_successor(-1) != 3) {
      bad = true;
      break;
    }
  }
  stop = true;
  churn.join();
  EXPECT_FALSE(bad.load());
}

}  // namespace
}  // namespace lfbt
