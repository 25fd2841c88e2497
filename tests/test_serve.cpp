// Tests for the serve/ front door: batched-drain linearizability
// (Wing–Gong over batched writers racing unbatched readers), future
// exactness under a stalled drainer, the coalescing pass and buffer
// memory reuse.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "core/lockfree_trie.hpp"
#include "serve/batch.hpp"
#include "shard/sharded_trie.hpp"
#include "sync/random.hpp"
#include "verify/linearizability.hpp"

namespace lfbt {
namespace {

// ---------------------------------------------------------------------------
// Batch-drain Wing–Gong: writer threads funnel updates + point queries
// through per-thread BatchBuffers while reader threads hit the structure
// directly, and every completed round must linearize. Batched ops are
// recorded with inv = the submit tick and res = a tick taken after the
// covering flush returned — a window that contains the drain point, which
// is exactly where the batched-linearization contract places the op.

struct PendingRec {
  serve::OpTicket ticket;
  RecordedOp rec;
};

template <class Set>
void settle_batch(serve::BatchBuffer<Set>& buf, std::vector<PendingRec>& pend,
                  HistoryClock& clock, std::vector<RecordedOp>& out) {
  for (PendingRec& p : pend) {
    p.rec.ret = buf.result(p.ticket);
    p.rec.res = clock.tick();
    out.push_back(p.rec);
  }
  pend.clear();
}

// Runs `report` once, on its own thread, if the watchdog is still alive
// `after` from its construction. A Wing–Gong check of a hard history can
// outlive a ctest or stress_repeat.sh timeout; the report then leaves the
// evidence that tells a hard-but-valid history from a non-linearizable one.
class SlowCheckWatchdog {
 public:
  template <class Report>
  SlowCheckWatchdog(std::chrono::seconds after, Report report)
      : thread_([this, after, report] {
          bool done = false;
          {
            std::unique_lock<std::mutex> lock(mu_);
            done = cv_.wait_for(lock, after, [this] { return done_; });
          }
          if (!done) report();
        }) {}
  SlowCheckWatchdog(const SlowCheckWatchdog&) = delete;
  SlowCheckWatchdog& operator=(const SlowCheckWatchdog&) = delete;

  ~SlowCheckWatchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts after the members it reads
};

template <class Set>
void batched_wing_gong(Set& set, uint64_t seed) {
  constexpr Key kUniverse = 16;
  constexpr int kWriters = 3;
  constexpr int kReaders = 2;
  constexpr int kRounds = 40;
  constexpr int kOpsPerRound = 24;
  constexpr std::size_t kBatch = 6;
  constexpr int kSlowCheckSeconds = 20;

  uint64_t state = 0;
  for (Key k = 0; k < kUniverse; ++k) {
    if (set.contains(k)) state |= uint64_t{1} << k;
  }
  for (int round = 0; round < kRounds; ++round) {
    HistoryClock clock;
    std::vector<std::vector<RecordedOp>> per_thread(kWriters + kReaders);
    std::vector<std::thread> ts;
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    for (int t = 0; t < kWriters; ++t) {
      ts.emplace_back([&, t] {
        Xoshiro256 rng(seed * 7919 + uint64_t(round) * 131 + uint64_t(t));
        serve::BatchBuffer<Set> buf(set, kBatch);
        std::vector<PendingRec> pend;
        pend.reserve(kBatch);
        ready.fetch_add(1);
        while (!go.load()) std::this_thread::yield();
        for (int i = 0; i < kOpsPerRound; ++i) {
          Key k = static_cast<Key>(rng.bounded(kUniverse));
          const int roll = static_cast<int>(rng.bounded(100));
          PendingRec p;
          p.rec.key = k;
          p.rec.inv = clock.tick();
          if (roll < 20) {
            p.rec.kind = OpKind::kPredecessor;
            p.rec.key = k + 1;  // query point in [1, u]
            p.ticket = buf.predecessor(k + 1);
          } else if (roll < 40) {
            p.rec.kind = OpKind::kContains;
            p.ticket = buf.contains(k);
          } else if (roll < 70) {
            p.rec.kind = OpKind::kInsert;
            p.ticket = buf.insert(k);
          } else {
            p.rec.kind = OpKind::kErase;
            p.ticket = buf.erase(k);
          }
          pend.push_back(p);
          // A capacity auto-drain completed every pending ticket.
          if (buf.pending() == 0) settle_batch(buf, pend, clock, per_thread[t]);
        }
        buf.flush();
        settle_batch(buf, pend, clock, per_thread[t]);
      });
    }
    for (int t = 0; t < kReaders; ++t) {
      ts.emplace_back([&, t] {
        Xoshiro256 rng(seed * 104729 + uint64_t(round) * 977 + uint64_t(t));
        ready.fetch_add(1);
        while (!go.load()) std::this_thread::yield();
        for (int i = 0; i < kOpsPerRound; ++i) {
          Key k = static_cast<Key>(rng.bounded(kUniverse));
          const OpKind kind =
              rng.bounded(2) ? OpKind::kContains : OpKind::kPredecessor;
          if (kind == OpKind::kPredecessor) k = k + 1;
          recorded_apply(set, kind, k, clock, per_thread[kWriters + t]);
        }
      });
    }
    while (ready.load() != kWriters + kReaders) std::this_thread::yield();
    go = true;
    for (auto& th : ts) th.join();

    std::vector<RecordedOp> history;
    for (int t = 0; t < kWriters + kReaders; ++t) {
      for (RecordedOp& op : per_thread[t]) op.thread = t;
      history.insert(history.end(), per_thread[t].begin(), per_thread[t].end());
    }
    uint64_t observed = 0;
    for (Key k = 0; k < kUniverse; ++k) {
      recorded_apply(set, OpKind::kContains, k, clock, history);
      if (history.back().ret) observed |= uint64_t{1} << k;
    }
    bool linearizable = false;
    {
      const auto report = [&] {
        std::fprintf(stderr,
                     "BatchDrain round %d (seed %llu): check still running "
                     "after %d s; history:\n%s",
                     round, static_cast<unsigned long long>(seed),
                     kSlowCheckSeconds, describe(history).c_str());
      };
      SlowCheckWatchdog watchdog(std::chrono::seconds(kSlowCheckSeconds),
                                 report);
      linearizable = LinearizabilityChecker::check(history, state);
    }
    ASSERT_TRUE(linearizable)
        << "round " << round << " not linearizable (seed " << seed
        << "); history:\n"
        << describe(history);
    state = observed;
  }
}

TEST(BatchDrain, WingGongFlatTrie) {
  LockFreeBinaryTrie set(16);
  batched_wing_gong(set, 1);
}

TEST(BatchDrain, WingGongShardedTrie) {
  ShardedTrie set(16, 4);
  batched_wing_gong(set, 2);
}

// ---------------------------------------------------------------------------
// Future exactness under a stalled drainer: while no flush runs, tickets
// stay not-ready and the structure is untouched; after the flush every
// result equals a sequential oracle replay of the submission order —
// including through coalescing patterns (same-key runs, query-bounded
// segments), which must be invisible in the results.

TEST(BatchBuffer, FutureExactnessUnderStalledDrainer) {
  constexpr Key kUniverse = 64;
  LockFreeBinaryTrie set(kUniverse);
  for (Key k : {3, 10, 20}) set.insert(k);
  uint64_t model = (uint64_t{1} << 3) | (uint64_t{1} << 10) | (uint64_t{1} << 20);

  serve::BatchBuffer<LockFreeBinaryTrie> buf(set, 1024);  // never auto-drains
  struct Expected {
    serve::OpTicket ticket;
    int64_t want;
  };
  std::vector<Expected> exp;

  auto model_pred = [&](Key y) -> int64_t {
    for (Key k = y - 1; k >= 0; --k) {
      if (model & (uint64_t{1} << k)) return k;
    }
    return kNoKey;
  };
  auto model_succ = [&](Key y) -> int64_t {
    for (Key k = y + 1; k < kUniverse; ++k) {
      if (model & (uint64_t{1} << k)) return k;
    }
    return kNoKey;
  };

  Xoshiro256 rng(7);
  for (int i = 0; i < 400; ++i) {
    const Key k = static_cast<Key>(rng.bounded(kUniverse));
    int64_t want = 0;
    serve::OpTicket t;
    switch (rng.bounded(5)) {
      case 0:
        t = buf.insert(k);
        model |= uint64_t{1} << k;
        break;
      case 1:
        t = buf.erase(k);
        model &= ~(uint64_t{1} << k);
        break;
      case 2:
        want = (model >> k) & 1;
        t = buf.contains(k);
        break;
      case 3:
        want = model_pred(k + 1);
        t = buf.predecessor(k + 1);
        break;
      default:
        want = model_succ(k - 1);
        t = buf.successor(k - 1);
        break;
    }
    EXPECT_FALSE(buf.ready(t)) << "ticket ready before any flush";
    exp.push_back({t, want});
  }
  // Stalled drainer: nothing above has reached the structure.
  EXPECT_EQ(buf.pending(), 400u);
  uint64_t direct = 0;
  for (Key k = 0; k < kUniverse; ++k) {
    if (set.contains(k)) direct |= uint64_t{1} << k;
  }
  EXPECT_EQ(direct, (uint64_t{1} << 3) | (uint64_t{1} << 10) | (uint64_t{1} << 20))
      << "buffered ops leaked into the structure before flush";

  buf.flush();
  EXPECT_EQ(buf.pending(), 0u);
  for (std::size_t i = 0; i < exp.size(); ++i) {
    ASSERT_TRUE(buf.ready(exp[i].ticket));
    // The ring holds `capacity` results; everything fits (400 < 1024).
    EXPECT_EQ(buf.result(exp[i].ticket), exp[i].want) << "op " << i;
  }
  // And the final structure state matches the oracle.
  direct = 0;
  for (Key k = 0; k < kUniverse; ++k) {
    if (set.contains(k)) direct |= uint64_t{1} << k;
  }
  EXPECT_EQ(direct, model);
}

// ---------------------------------------------------------------------------
// Coalescing accounting: superseded same-key updates inside a query-free
// segment are counted (and only those — a query bounds the segment).

TEST(BatchBuffer, CoalescingCountsSupersededUpdates) {
  LockFreeBinaryTrie set(64);
  serve::BatchBuffer<LockFreeBinaryTrie> buf(set, 16);

  StepCounts before = Stats::aggregate();
  buf.insert(5);
  buf.erase(5);
  buf.insert(5);  // survivor of the key-5 run
  buf.insert(7);
  buf.flush();
  StepCounts d = Stats::aggregate() - before;
  EXPECT_EQ(d.batch_flushes, 1u);
  EXPECT_EQ(d.batch_ops, 4u);
  EXPECT_EQ(d.batch_coalesced, 2u);
  EXPECT_TRUE(set.contains(5));
  EXPECT_TRUE(set.contains(7));

  // A query in between is a segment boundary: nothing may supersede
  // across it, and the query's answer prices the intermediate state.
  before = Stats::aggregate();
  auto t1 = buf.insert(9);
  auto t2 = buf.contains(9);
  auto t3 = buf.erase(9);
  buf.flush();
  d = Stats::aggregate() - before;
  EXPECT_EQ(d.batch_coalesced, 0u);
  EXPECT_EQ(buf.result(t2), 1) << "query must see the pre-boundary insert";
  EXPECT_EQ(buf.result(t1), 0);
  EXPECT_EQ(buf.result(t3), 0);
  EXPECT_FALSE(set.contains(9));
}

// ---------------------------------------------------------------------------
// Buffer reuse: all batch storage is reserved at construction; flushes
// never allocate (the kBatchSlot byte gauge stays flat), and destruction
// returns the in_use gauge to its prior level.

TEST(BatchBuffer, ReuseKeepsMemoryFlat) {
  LockFreeBinaryTrie set(256);
  const auto before = MemStats::snapshot(MemClass::kBatchSlot);
  {
    serve::BatchBuffer<LockFreeBinaryTrie> buf(set, 64);
    const uint64_t reserved =
        MemStats::snapshot(MemClass::kBatchSlot).bytes_reserved;
    EXPECT_GT(reserved, before.bytes_reserved);
    for (int round = 0; round < 200; ++round) {
      for (Key k = 0; k < 64; ++k) {
        if ((round + k) % 2) {
          buf.insert((k * 3) % 250);
        } else {
          buf.erase((k * 5) % 250);
        }
      }  // capacity 64 -> exactly one auto-drain per round
    }
    buf.flush();
    EXPECT_EQ(MemStats::snapshot(MemClass::kBatchSlot).bytes_reserved, reserved)
        << "a drain allocated batch storage";
  }
  const auto after = MemStats::snapshot(MemClass::kBatchSlot);
  EXPECT_EQ(after.in_use(), before.in_use());
}

}  // namespace
}  // namespace lfbt
