// Split-torture coverage for ShardedTrie's online resharding: geometry
// publication, differential correctness with geometry churn, Wing–Gong
// linearizability with a split in flight, a frozen migration, concurrent
// splitters serializing on the control plane, a single-writer oracle run
// across a paused split, and a split/merge churn soak that pins the
// memory footprint (the churn-soak leak gate extended to the control
// plane).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "ebr_test_util.hpp"
#include "set_test_util.hpp"
#include "shard/sharded_trie.hpp"
#include "stress_util.hpp"
#include "verify/oracle.hpp"
#include "workload/soak.hpp"

namespace lfbt {
namespace {

using testutil::ref_predecessor;

Key ref_successor(const std::set<Key>& s, Key y) {
  auto it = s.upper_bound(y);
  return it == s.end() ? kNoKey : *it;
}

/// Full sweep of the read surface against a reference set. Valid only
/// while no CLIENT mutator runs; a migrator may be mid-flight (that is
/// the point — migration must be invisible to the abstract set).
void expect_matches(ShardedTrie& t, const std::set<Key>& ref) {
  const Key u = t.universe();
  for (Key k = 0; k < u; ++k) {
    ASSERT_EQ(t.contains(k), ref.count(k) > 0) << "contains k=" << k;
  }
  for (Key y = 0; y <= u; ++y) {
    ASSERT_EQ(t.predecessor(y), ref_predecessor(ref, y)) << "pred y=" << y;
  }
  for (Key y = -1; y < u; ++y) {
    ASSERT_EQ(t.successor(y), ref_successor(ref, y)) << "succ y=" << y;
  }
}

// ---- Geometry publication ------------------------------------------------

TEST(Resharding, SplitPublishesNewRange) {
  ShardedTrie t(64, 2);
  std::set<Key> ref;
  for (Key k = 0; k < 64; k += 3) {
    t.insert(k);
    ref.insert(k);
  }
  ASSERT_EQ(t.shard_count(), 2);
  EXPECT_TRUE(t.split(0));
  EXPECT_EQ(t.shard_count(), 3);
  EXPECT_EQ(t.reshard_count(), 1u);
  EXPECT_FALSE(t.resharding_in_flight());
  // [0,32) split at 16: entries [0,16), [16,32), [32,64).
  EXPECT_EQ(t.range_bounds(0), (std::pair<Key, Key>{0, 16}));
  EXPECT_EQ(t.range_bounds(1), (std::pair<Key, Key>{16, 32}));
  EXPECT_EQ(t.range_bounds(2), (std::pair<Key, Key>{32, 64}));
  EXPECT_EQ(t.shard_of(15), 0);
  EXPECT_EQ(t.shard_of(16), 1);
  expect_matches(t, ref);
  // The set keeps working across the moved boundary.
  t.insert(17);
  ref.insert(17);
  t.erase(18);
  ref.erase(18);
  expect_matches(t, ref);
}

TEST(Resharding, SplitRefusals) {
  ShardedTrie t(4, 4);  // four width-1 ranges
  EXPECT_FALSE(t.split(0));
  EXPECT_FALSE(t.split(-1));
  EXPECT_FALSE(t.split(99));
  EXPECT_FALSE(t.merge(-1));
  EXPECT_FALSE(t.merge(99));
  EXPECT_EQ(t.shard_count(), 4);
  EXPECT_EQ(t.reshard_count(), 0u);
}

TEST(Resharding, MergeRestoresGeometry) {
  ShardedTrie t(128, 4);
  std::set<Key> ref;
  for (Key k = 1; k < 128; k += 5) {
    t.insert(k);
    ref.insert(k);
  }
  ASSERT_TRUE(t.split(2));
  ASSERT_EQ(t.shard_count(), 5);
  expect_matches(t, ref);
  EXPECT_TRUE(t.merge(2));
  EXPECT_EQ(t.shard_count(), 4);
  EXPECT_EQ(t.reshard_count(), 2u);
  expect_matches(t, ref);
  // The widened range can split again (the trie kept its full universe).
  EXPECT_TRUE(t.split(2));
  expect_matches(t, ref);
}

TEST(Resharding, MergeRefusesNonSiblings) {
  // Merges only undo splits: the left trie must already span both
  // ranges. Every refusal leaves the table, the reshard count and the
  // abstract set untouched.
  ShardedTrie t(64, 2);  // [0,32), [32,64)
  std::set<Key> ref;
  for (Key k = 0; k < 64; k += 3) {
    t.insert(k);
    ref.insert(k);
  }
  auto table = [&] {
    std::vector<std::pair<Key, Key>> b;
    for (int i = 0; i < t.shard_count(); ++i) b.push_back(t.range_bounds(i));
    return b;
  };
  auto expect_refused = [&](int i) {
    const auto before = table();
    const uint64_t reshards = t.reshard_count();
    EXPECT_FALSE(t.merge(i));
    EXPECT_EQ(table(), before);
    EXPECT_EQ(t.reshard_count(), reshards);
    EXPECT_FALSE(t.resharding_in_flight());
    expect_matches(t, ref);
  };
  expect_refused(0);        // construction-time neighbours
  ASSERT_TRUE(t.split(0));  // [0,16), [16,32), [32,64)
  expect_refused(1);        // the split's right half with its neighbour
  // The split's own halves still merge back.
  EXPECT_TRUE(t.merge(0));
  EXPECT_EQ(t.range_bounds(0), (std::pair<Key, Key>{0, 32}));
  EXPECT_EQ(t.reshard_count(), 2u);
  expect_matches(t, ref);
}

TEST(Resharding, RecursiveSplitToWidthOne) {
  ShardedTrie t(16, 1);
  std::set<Key> ref;
  for (Key k : {0, 3, 7, 8, 9, 15}) {
    t.insert(k);
    ref.insert(k);
  }
  // Keep splitting range 0 until it is width 1: geometry ends highly
  // non-uniform ([0,1), [1,2), [2,4), [4,8), [8,16)).
  int splits = 0;
  while (t.split(0)) ++splits;
  EXPECT_EQ(splits, 4);
  EXPECT_EQ(t.shard_count(), 5);
  EXPECT_EQ(t.range_bounds(0), (std::pair<Key, Key>{0, 1}));
  expect_matches(t, ref);
}

TEST(Resharding, SizeAndEmptyAcrossSplit) {
  ShardedTrie t(64, 2);
  EXPECT_TRUE(t.empty());
  for (Key k = 10; k < 50; ++k) t.insert(k);
  ASSERT_TRUE(t.split(0));
  ASSERT_TRUE(t.split(1));
  EXPECT_EQ(t.size(), 40u);
  EXPECT_FALSE(t.empty());
  for (Key k = 10; k < 50; ++k) t.erase(k);
  EXPECT_TRUE(t.empty());
}

TEST(Resharding, RangeScanAcrossChangedGeometry) {
  ShardedTrie t(256, 2);
  std::set<Key> ref;
  for (Key k = 0; k < 256; k += 7) {
    t.insert(k);
    ref.insert(k);
  }
  ASSERT_TRUE(t.split(0));
  ASSERT_TRUE(t.split(2));
  std::vector<Key> out;
  const std::size_t n = t.range_scan(5, 250, 1000, out);
  std::vector<Key> expect;
  for (Key k : ref) {
    if (k >= 5 && k <= 250) expect.push_back(k);
  }
  ASSERT_EQ(n, expect.size());
  EXPECT_EQ(out, expect);
}

// ---- Load observer / split policy ---------------------------------------

TEST(Resharding, MaybeSplitTargetsHotRange) {
  ShardedTrie t(Key{1} << 10, 4);
  ShardedTrie::SplitPolicy pol;
  pol.min_ops = 1000;
  pol.imbalance = 2.0;
  // Below the window: no decision yet.
  for (int i = 0; i < 100; ++i) t.insert(i % 8);
  EXPECT_EQ(t.maybe_split(pol), -1);
  // Hammer range 0 past the window: it is the hot spot.
  for (int i = 0; i < 1200; ++i) {
    t.insert(i % 64);
    t.erase((i + 1) % 64);
  }
  EXPECT_EQ(t.maybe_split(pol), 0);
  EXPECT_EQ(t.shard_count(), 5);
  // Uniform update traffic past the window: balanced, no split. (Reads
  // don't feed the load observer — only routed updates bump epochs.)
  for (int i = 0; i < 2000; ++i) t.insert((i * 131) % (Key{1} << 10));
  EXPECT_EQ(t.maybe_split(pol), -1);
  EXPECT_EQ(t.shard_count(), 5);
}

TEST(Resharding, MaybeSplitSingleRangeIsItsOwnHotSpot) {
  ShardedTrie t(64, 1);
  ShardedTrie::SplitPolicy pol;
  pol.min_ops = 64;
  for (Key k = 0; k < 64; ++k) t.insert(k);
  EXPECT_EQ(t.maybe_split(pol), 0);
  EXPECT_EQ(t.shard_count(), 2);
}

// ---- Differential with geometry churn ------------------------------------

TEST(Resharding, DifferentialUnderGeometryChurn) {
  ShardedTrie t(512, 2);
  std::set<Key> ref;
  Xoshiro256 rng(2024);
  bool grown = false;
  for (int i = 0; i < 6000; ++i) {
    if (i % 500 == 250) {
      // Alternate growth and shrink phases of the geometry between op
      // bursts; every op after a change exercises the fresh table.
      if (!grown) {
        grown = t.split(static_cast<int>(rng.bounded(
            static_cast<uint64_t>(t.shard_count()))));
      } else {
        grown = !t.merge(static_cast<int>(rng.bounded(
            static_cast<uint64_t>(t.shard_count() - 1))));
      }
    }
    const Key k = static_cast<Key>(rng.bounded(512));
    switch (rng.bounded(5)) {
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
      case 3:
        ASSERT_EQ(t.predecessor(k + 1), ref_predecessor(ref, k + 1))
            << "i=" << i;
        break;
      default:
        ASSERT_EQ(t.successor(k - 1), ref_successor(ref, k - 1)) << "i=" << i;
    }
  }
  expect_matches(t, ref);
}

// ---- Wing–Gong linearizability with splits in flight ----------------------

TEST(Resharding, LinearizableWithSplitMergeChurn) {
  // Mixed insert/erase/contains/pred/succ history checked round by round
  // while a background churner splits and re-merges the first range the
  // whole time — forced resharding concurrent with every checked window.
  // A slice of whole-window validated scans rides along: an atomic scan
  // observed while a migration is in flight must still linearize (no key
  // reported twice across the src/dst union, no migrated key dropped).
  ShardedTrie t(16, 2);
  testutil::StressSpec spec;
  spec.universe = 16;
  spec.threads = 4;
  spec.ops_per_round = 12;
  spec.rounds = 40;
  spec.pred_weight = 20;
  spec.succ_weight = 20;
  spec.scan_weight = 15;
  spec.contains_weight = 10;
  spec.seed = 99;
  std::atomic<uint64_t> churns{0};
  testutil::linearizability_stress(t, spec, [&](std::atomic<bool>& stop) {
    while (!stop.load()) {
      if (t.split(0)) churns.fetch_add(1);
      if (t.merge(0)) churns.fetch_add(1);
    }
  });
  EXPECT_GT(churns.load(), 0u) << "churner never completed a reshard";
}

TEST(Resharding, LinearizableWithPolicyDrivenSplits) {
  // Same stress, but geometry changes come from the load observer: the
  // churner polls maybe_split() with a tiny window, then merges
  // everything back so the table never fills.
  ShardedTrie t(32, 1);
  testutil::StressSpec spec;
  spec.universe = 32;
  spec.threads = 4;
  spec.ops_per_round = 16;
  spec.rounds = 30;
  spec.pred_weight = 20;
  spec.succ_weight = 20;
  spec.contains_weight = 10;
  spec.seed = 7;
  ShardedTrie::SplitPolicy pol;
  pol.min_ops = 256;
  pol.imbalance = 0.0;  // any window triggers: maximum geometry churn
  testutil::linearizability_stress(t, spec, [&](std::atomic<bool>& stop) {
    while (!stop.load()) {
      if (t.shard_count() < 6) {
        t.maybe_split(pol);
      } else {
        // Collapse by merging any mergeable pair until none is left.
        bool merged = true;
        while (merged) {
          merged = false;
          for (int i = 0; i + 1 < t.shard_count(); ++i) merged |= t.merge(i);
        }
      }
      std::this_thread::yield();
    }
  });
}

// ---- Fault injection ------------------------------------------------------

TEST(Resharding, FrozenSplitterLeavesQueriesExact) {
  // Freeze the splitter between batches (copy flag down, watermark in
  // the middle of the moved range) and sweep the full read surface: the
  // half-migrated range must answer exactly, via watermark routing and
  // the union pair-reads. Universe 512 so the moved range [384,512)
  // spans two 64-key batches — the freeze lands between them.
  ShardedTrie t(512, 2);
  std::set<Key> ref;
  for (Key k = 0; k < 512; k += 2) {
    t.insert(k);
    ref.insert(k);
  }
  std::atomic<bool> frozen{false};
  std::atomic<bool> release{false};
  std::thread splitter([&] {
    const bool ok = t.split(1, [&](Key wm) {
      if (wm > 384) {  // at least one batch already moved
        frozen.store(true);
        while (!release.load()) std::this_thread::yield();
      }
    });
    EXPECT_TRUE(ok);
  });
  while (!frozen.load()) std::this_thread::yield();
  EXPECT_TRUE(t.resharding_in_flight());
  expect_matches(t, ref);  // mid-migration: union reads must be exact
  // Client updates below the frozen watermark (448) land in the dst.
  t.insert(443);
  ref.insert(443);
  t.erase(442);
  ref.erase(442);
  expect_matches(t, ref);
  release.store(true);
  splitter.join();
  EXPECT_FALSE(t.resharding_in_flight());
  EXPECT_EQ(t.shard_count(), 3);
  expect_matches(t, ref);
}

TEST(Resharding, ConcurrentSplitsSerialize) {
  // Reshards run one at a time: four racing split() calls each either
  // publish one split or refuse, and the abstract set is untouched.
  ShardedTrie t(1024, 2);
  std::set<Key> ref;
  for (Key k = 0; k < 1024; k += 5) {
    t.insert(k);
    ref.insert(k);
  }
  const int before = t.shard_count();
  std::atomic<int> go{0};
  std::atomic<int> published{0};
  std::vector<std::thread> splitters;
  for (int w = 0; w < 4; ++w) {
    splitters.emplace_back([&, w] {
      go.fetch_add(1);
      while (go.load() < 4) std::this_thread::yield();
      if (t.split(w % 2)) published.fetch_add(1);
    });
  }
  for (auto& th : splitters) th.join();
  EXPECT_EQ(published.load(), t.shard_count() - before);
  EXPECT_EQ(t.reshard_count(), static_cast<uint64_t>(published.load()));
  EXPECT_FALSE(t.resharding_in_flight());
  expect_matches(t, ref);
}

// ---- Single-writer oracle across a paused, crawling split -----------------

TEST(Resharding, SingleWriterOracleAcrossCrawlingSplit) {
  // One writer, concurrent interval-checked readers on all three query
  // kinds, while a splitter crawls through the range (yielding between
  // batches so the migration spans the whole run). Sound because
  // migration never changes the abstract set the oracle models.
  ShardedTrie t(48, 1);
  SingleWriterOracle oracle;
  HistoryClock clock;
  std::atomic<bool> writer_done{false};
  constexpr int kReaders = 3;
  std::vector<std::vector<SingleWriterOracle::Query>> logs(kReaders);
  std::thread splitter([&] {
    // Repeated crawling splits and merges until the writer finishes.
    while (!writer_done.load()) {
      t.split(0, [&](Key) { std::this_thread::yield(); });
      t.merge(0, [&](Key) { std::this_thread::yield(); });
    }
  });
  // Fixed per-reader query counts (not "until the writer stops"): the
  // writer can finish before a reader is even scheduled, and queries
  // against the final quiescent state are still interval-valid.
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 rng(500 + r);
      for (int i = 0; i < 1500; ++i) {
        const Key y = static_cast<Key>(rng.bounded(48));
        switch (rng.bounded(3)) {
          case 0:
            SingleWriterOracle::reader_query(t, y + 1, clock, logs[r]);
            break;
          case 1:
            SingleWriterOracle::reader_successor_query(t, y - 1, clock,
                                                       logs[r]);
            break;
          default:
            SingleWriterOracle::reader_contains_query(t, y, clock, logs[r]);
        }
      }
    });
  }
  Xoshiro256 rng(42);
  for (int i = 0; i < 3000; ++i) {
    const Key k = static_cast<Key>(rng.bounded(48));
    oracle.writer_apply(
        t, rng.bounded(2) ? OpKind::kInsert : OpKind::kErase, k, clock);
  }
  for (auto& th : readers) th.join();
  writer_done.store(true);
  splitter.join();
  for (int r = 0; r < kReaders; ++r) {
    ASSERT_EQ(oracle.validate(logs[r]), -1) << "reader " << r;
    EXPECT_GT(logs[r].size(), 0u);
  }
}

// ---- Split/merge churn soak: bounded footprint ---------------------------

TEST(Resharding, SplitMergeChurnSoakStaysFlat) {
  // The churn-soak leak gate extended to the control plane: repeated splits and
  // merges under update churn must not grow the structure's arenas or
  // the process pools — retired tables, ctls and merge-victim shards
  // all recycle through EBR and the chunk store.
  ShardedTrie t(Key{1} << 12, 2);
  SoakConfig cfg;
  cfg.threads = 4;
  cfg.windows = 5;
  cfg.ops_per_thread_per_window = 12000;
  cfg.universe = Key{1} << 12;
  cfg.mix = kUpdateHeavy;
  cfg.seed = 11;
  cfg.disturbance = [&](int) {
    for (int j = 0; j < 3; ++j) {
      t.split(0);
      t.split(1);
      t.merge(1);
      t.merge(0);
    }
    // Flush this thread's limbo (retired tables/ctls/victim shards) so
    // the post-window sample sees the steady state, not the backlog.
    ebr::synchronize();
  };
  const auto samples = churn_soak(t, cfg);
  ASSERT_EQ(samples.size(), 5u);
  EXPECT_GE(t.reshard_count(), 5u * 6u);  // the churn really happened
  EXPECT_TRUE(soak_tail_is_flat(samples))
      << "resharding churn leaked: structure "
      << samples[samples.size() - 2].structure_bytes << " -> "
      << samples.back().structure_bytes << " bytes, pools "
      << samples[samples.size() - 2].pool_bytes << " -> "
      << samples.back().pool_bytes << " bytes\n"
      << describe(samples);
}

}  // namespace
}  // namespace lfbt
