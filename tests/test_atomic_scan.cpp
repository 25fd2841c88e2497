// Scan-torture layer for the atomic multi-key read surface:
// epoch-validated scans (flat trie + ShardedTrie). Covers: quiet-window
// atomicity, seeded mid-scan interference (deterministic retry and
// forced-fallback paths, with the Stats retry counters), Wing–Gong
// stress with whole-scan events under churn, and the single-writer
// oracle on scan windows.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include "core/lockfree_trie.hpp"
#include "ebr_test_util.hpp"
#include "query/range_scan.hpp"
#include "set_test_util.hpp"
#include "shard/sharded_trie.hpp"
#include "stress_util.hpp"
#include "verify/oracle.hpp"

namespace lfbt {
namespace {

std::vector<Key> ref_window(const std::set<Key>& s, Key lo, Key hi,
                            std::size_t limit = kNoScanLimit) {
  std::vector<Key> out;
  for (auto it = s.lower_bound(lo); it != s.end() && *it <= hi; ++it) {
    if (out.size() >= limit) break;
    out.push_back(*it);
  }
  return out;
}

// ---- Quiet-window atomicity ------------------------------------------------

TEST(AtomicScan, FlatQuietScanValidatesFirstTry) {
  LockFreeBinaryTrie t(256);
  std::set<Key> ref;
  for (Key k = 3; k < 256; k += 7) {
    t.insert(k);
    ref.insert(k);
  }
  std::vector<Key> out;
  const ScanResult r = t.range_scan_validated(10, 200, kNoScanLimit, out);
  EXPECT_TRUE(r.atomic);
  EXPECT_EQ(r.retries, 0u);
  EXPECT_EQ(out, ref_window(ref, 10, 200));
  // Limit semantics survive the validated path.
  out.clear();
  const ScanResult rl = t.range_scan_validated(0, 255, 5, out);
  EXPECT_TRUE(rl.atomic);
  EXPECT_EQ(rl.n, 5u);
  EXPECT_EQ(out, ref_window(ref, 0, 255, 5));
}

TEST(AtomicScan, ShardedQuietScanValidatesAcrossRanges) {
  ShardedTrie t(250, 4);  // non-dividing: the last shard is narrower
  std::set<Key> ref;
  for (Key k = 1; k < 250; k += 5) {
    t.insert(k);
    ref.insert(k);
  }
  std::vector<Key> out;
  const ScanResult r = t.range_scan_validated(0, 249, kNoScanLimit, out);
  EXPECT_TRUE(r.atomic);
  EXPECT_EQ(r.retries, 0u);
  EXPECT_EQ(out, ref_window(ref, 0, 249));
  out.clear();
  const ScanResult rl = t.range_scan_validated(40, 220, 7, out);
  EXPECT_TRUE(rl.atomic);
  EXPECT_EQ(out, ref_window(ref, 40, 220, 7));
}

// ---- Seeded interference: deterministic retry and fallback ----------------

// Successor adapter that fires a mutation on the underlying trie after a
// fixed number of successor steps — a deterministic mid-scan update. The
// epoch hook sees the real trie epoch, so the validated scan MUST detect
// the interference, discard the walk and retry.
struct InterferingSet {
  LockFreeBinaryTrie& t;
  int fire_after;
  Key mutate_key;
  bool insert_side;
  int calls = 0;
  Key successor(Key y) {
    if (calls++ == fire_after) {
      if (insert_side) {
        t.insert(mutate_key);
      } else {
        t.erase(mutate_key);
      }
    }
    return t.successor(y);
  }
};

TEST(AtomicScan, SeededInsertBehindCursorForcesRetry) {
  LockFreeBinaryTrie t(64);
  for (Key k : {10, 20, 30, 40}) t.insert(k);
  // The insert fires after the scan's cursor has passed key 5 — a
  // per-step walk would silently omit it; the validated walk retries
  // and reports the post-insert state atomically.
  InterferingSet s{t, /*fire_after=*/2, /*mutate_key=*/5,
                   /*insert_side=*/true};
  const StepCounts before = Stats::local();
  std::vector<Key> out;
  const ScanResult r = epoch_validated_scan(
      s, [&] { return t.update_epoch(); }, 0, 63, kNoScanLimit, out);
  EXPECT_TRUE(r.atomic);
  EXPECT_EQ(r.retries, 1u);
  EXPECT_EQ(out, (std::vector<Key>{5, 10, 20, 30, 40}));
  const StepCounts d = Stats::local() - before;
  EXPECT_EQ(d.scan_retries, 1u);
  EXPECT_EQ(d.atomic_scans, 1u);
  EXPECT_EQ(d.scan_fallbacks, 0u);
}

TEST(AtomicScan, SeededEraseBehindCursorForcesRetry) {
  LockFreeBinaryTrie t(64);
  for (Key k : {10, 20, 30, 40}) t.insert(k);
  // The erase removes an ALREADY-REPORTED key: this is exactly the case
  // an insert-only epoch would miss (the scan claims 10 in a state that
  // no longer has it) — both directions must invalidate.
  InterferingSet s{t, /*fire_after=*/2, /*mutate_key=*/10,
                   /*insert_side=*/false};
  std::vector<Key> out;
  const ScanResult r = epoch_validated_scan(
      s, [&] { return t.update_epoch(); }, 0, 63, kNoScanLimit, out);
  EXPECT_TRUE(r.atomic);
  EXPECT_EQ(r.retries, 1u);
  EXPECT_EQ(out, (std::vector<Key>{20, 30, 40}));
}

// Fires a mutation on EVERY walk (outside the scanned window, so the
// kept per-step walk still has a deterministic report): the scan can
// never validate and must fall back after max_retries.
struct AlwaysInterferingSet {
  LockFreeBinaryTrie& t;
  Key toggle_key;  // outside the scanned window
  bool present = false;
  Key successor(Key y) {
    if (y < 0) {  // first step of each walk
      if (present) {
        t.erase(toggle_key);
      } else {
        t.insert(toggle_key);
      }
      present = !present;
    }
    return t.successor(y);
  }
};

TEST(AtomicScan, PersistentInterferenceFallsBackHonestly) {
  LockFreeBinaryTrie t(128);
  for (Key k : {10, 20, 30}) t.insert(k);
  AlwaysInterferingSet s{t, /*toggle_key=*/100};
  const StepCounts before = Stats::local();
  std::vector<Key> out;
  const ScanResult r = epoch_validated_scan(
      s, [&] { return t.update_epoch(); }, 0, 63, kNoScanLimit, out,
      /*max_retries=*/2);
  EXPECT_FALSE(r.atomic);
  EXPECT_EQ(r.retries, 2u);
  // The kept walk is still per-step exact here (the toggled key is
  // outside the window) and earlier discarded walks left no residue.
  EXPECT_EQ(out, (std::vector<Key>{10, 20, 30}));
  const StepCounts d = Stats::local() - before;
  EXPECT_EQ(d.scan_retries, 2u);
  EXPECT_EQ(d.scan_fallbacks, 1u);
  EXPECT_EQ(d.atomic_scans, 0u);
}

TEST(AtomicScan, ZeroRetriesMeansImmediateFallback) {
  LockFreeBinaryTrie t(128);
  for (Key k : {10, 20, 30}) t.insert(k);
  AlwaysInterferingSet s{t, /*toggle_key=*/100};
  std::vector<Key> out;
  const ScanResult r = epoch_validated_scan(
      s, [&] { return t.update_epoch(); }, 0, 63, kNoScanLimit, out,
      /*max_retries=*/0);
  EXPECT_FALSE(r.atomic);
  EXPECT_EQ(r.retries, 0u);
  EXPECT_EQ(out, (std::vector<Key>{10, 20, 30}));
}

// ---- Wing–Gong with whole-scan events under churn -------------------------

TEST(AtomicScan, WingGongFlatTrieWithScanEvents) {
  LockFreeBinaryTrie t(24);
  testutil::StressSpec spec;
  spec.universe = 24;
  spec.threads = 4;
  spec.ops_per_round = 10;
  spec.rounds = 50;
  spec.pred_weight = 10;
  spec.succ_weight = 10;
  spec.scan_weight = 30;
  spec.contains_weight = 10;
  spec.scan_span = 8;
  spec.seed = 17;
  testutil::linearizability_stress(t, spec);
}

TEST(AtomicScan, WingGongShardedWithScans) {
  // Whole-scan events spanning the shard boundary: scans must stay atomic
  // (or honestly drop out) while updates land in both shards.
  ShardedTrie t(16, 2);
  testutil::StressSpec spec;
  spec.universe = 16;
  spec.threads = 4;
  spec.ops_per_round = 10;
  spec.rounds = 40;
  spec.pred_weight = 10;
  spec.succ_weight = 10;
  spec.scan_weight = 30;
  spec.contains_weight = 10;
  spec.scan_span = 8;
  spec.seed = 23;
  testutil::linearizability_stress(t, spec);
}

// ---- Single-writer oracle over scan windows -------------------------------
// One writer owns the state timeline over keys [0, 48) while readers log
// validated scans; every scan reported atomic must equal some state
// version alive during it.

template <class Set>
void single_writer_scan_audit(Set& t) {
  SingleWriterOracle oracle;
  HistoryClock clock;
  constexpr int kReaders = 3;
  std::vector<std::vector<SingleWriterOracle::Query>> logs(kReaders);
  std::vector<uint64_t> dropped(kReaders, 0);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 rng(301 + static_cast<uint64_t>(r));
      // Fixed query count so readers overlap the writer AND outlive it
      // (post-quiescence scans must validate against the final state).
      for (int i = 0; i < 600; ++i) {
        const Key lo = static_cast<Key>(rng.bounded(48));
        const Key hi = std::min<Key>(lo + 1 + static_cast<Key>(rng.bounded(12)), 47);
        const std::size_t limit = rng.bounded(2) != 0 ? 48 : 4;
        if (!SingleWriterOracle::reader_scan_query(t, lo, hi, limit, clock,
                                                   logs[r])) {
          ++dropped[r];
        }
      }
    });
  }
  Xoshiro256 rng(300);
  for (int i = 0; i < 1500; ++i) {
    const Key k = static_cast<Key>(rng.bounded(48));
    oracle.writer_apply(t, rng.bounded(2) ? OpKind::kInsert : OpKind::kErase,
                        k, clock);
  }
  for (auto& th : readers) th.join();
  for (int r = 0; r < kReaders; ++r) {
    ASSERT_EQ(oracle.validate(logs[r]), -1) << "reader " << r;
    EXPECT_GT(logs[r].size(), 0u) << "every scan fell back; no coverage";
  }
}

TEST(AtomicScan, SingleWriterOracleAdmitsShardedScans) {
  ShardedTrie t(48, 3);
  single_writer_scan_audit(t);
}

TEST(AtomicScan, SingleWriterOracleAdmitsFlatScans) {
  // The flat trie validates a scan against its one update epoch.
  LockFreeBinaryTrie t(64);
  single_writer_scan_audit(t);
}

}  // namespace
}  // namespace lfbt
