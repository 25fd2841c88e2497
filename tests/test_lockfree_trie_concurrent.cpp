#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/lockfree_trie.hpp"
#include "set_test_util.hpp"
#include "shard/sharded_trie.hpp"
#include "verify/oracle.hpp"

namespace lfbt {
namespace {

TEST(LockFreeTrieConc, DisjointRangeDeterminism) {
  LockFreeBinaryTrie t(4 * 64);
  testutil::disjoint_range_determinism(t, 4, 64, 12000, 501);
  testutil::quiescent_predecessor_exact(t, 4 * 64);
}

TEST(LockFreeTrieConc, DisjointRangesWithConcurrentPredecessors) {
  // Updaters on disjoint ranges plus dedicated predecessor threads; the
  // final state must still be deterministic and the queries in-range.
  constexpr int kUpdaters = 3;
  constexpr Key kRange = 32;
  constexpr Key kUniverse = kUpdaters * kRange;
  LockFreeBinaryTrie t(kUniverse);
  std::atomic<bool> stop{false};
  std::atomic<bool> bad{false};
  std::vector<std::thread> preds;
  for (int p = 0; p < 3; ++p) {
    preds.emplace_back([&, p] {
      Xoshiro256 rng(900 + p);
      while (!stop.load()) {
        Key y = static_cast<Key>(rng.bounded(kUniverse)) + 1;
        Key got = t.predecessor(y);
        if (got < kNoKey || got >= y) bad = true;
      }
    });
  }
  testutil::disjoint_range_determinism(t, kUpdaters, kRange, 8000, 777);
  stop = true;
  for (auto& th : preds) th.join();
  EXPECT_FALSE(bad.load());
  testutil::quiescent_predecessor_exact(t, kUniverse);
}

TEST(LockFreeTrieConc, ContentionHammerTinyUniverse) {
  LockFreeBinaryTrie t(16);
  testutil::contention_hammer(t, 8, 16, 60000, 511);
  testutil::quiescent_predecessor_exact(t, 16);
}

TEST(LockFreeTrieConc, ContentionHammerSingleKey) {
  // Everyone fights over key 0: maximal latest-list contention.
  LockFreeBinaryTrie t(2);
  std::vector<std::thread> ths;
  for (int th = 0; th < 8; ++th) {
    ths.emplace_back([&, th] {
      Xoshiro256 rng(600 + th);
      for (int i = 0; i < 20000; ++i) {
        switch (rng.bounded(4)) {
          case 0:
            t.insert(0);
            break;
          case 1:
            t.erase(0);
            break;
          case 2:
            (void)t.contains(0);
            break;
          default: {
            Key p = t.predecessor(1);
            ASSERT_TRUE(p == kNoKey || p == 0) << p;
          }
        }
      }
    });
  }
  for (auto& th : ths) th.join();
  testutil::quiescent_predecessor_exact(t, 2);
}

class SingleWriterOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(SingleWriterOracleTest, PredecessorAnswersAlwaysJustifiable) {
  // One writer mutates; GetParam() readers run predecessor; every answer
  // must match the predecessor in some state version overlapping the
  // query interval (sound linearizability filter, see oracle.hpp).
  const int kReaders = GetParam();
  constexpr Key kUniverse = 48;
  LockFreeBinaryTrie t(kUniverse);
  HistoryClock clock;
  SingleWriterOracle oracle;
  std::atomic<bool> stop{false};
  std::vector<std::vector<SingleWriterOracle::Query>> logs(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 rng(1000 + r);
      while (!stop.load()) {
        Key y = static_cast<Key>(rng.bounded(kUniverse)) + 1;
        SingleWriterOracle::reader_query(t, y, clock, logs[r]);
      }
    });
  }
  Xoshiro256 rng(4242);
  for (int i = 0; i < 15000; ++i) {
    Key k = static_cast<Key>(rng.bounded(kUniverse));
    oracle.writer_apply(t, rng.bounded(2) ? OpKind::kInsert : OpKind::kErase, k,
                        clock);
  }
  stop = true;
  for (auto& th : readers) th.join();
  for (int r = 0; r < kReaders; ++r) {
    auto idx = oracle.validate(logs[r]);
    ASSERT_EQ(idx, -1) << "reader " << r << " query " << idx << ": "
                       << oracle.describe(
                              logs[r][static_cast<std::size_t>(idx)]);
  }
}

INSTANTIATE_TEST_SUITE_P(Readers, SingleWriterOracleTest,
                         ::testing::Values(1, 2, 4));

// Striped multi-writer oracle over one hot window, the shape of
// stackbench's ingest-hot workload. W threads share the window [0, 256);
// thread t owns the keys = t (mod W) and runs i50/d50 on them, so it
// knows its own stripe's membership exactly at every instant. Its
// predecessor and successor probes over the window must never return an
// own key it erased, never skip an own key it holds, and never leave the
// window (no thread writes outside it). W is twice the hardware threads,
// capped at 16, so workers get preempted mid-operation.
template <class Set>
void striped_hot_window_oracle(Set& set) {
  constexpr Key kWindow = 256;
  constexpr int kOps = 100000;
  const int w = static_cast<int>(
      std::min(16u, 2 * std::max(1u, std::thread::hardware_concurrency())));
  // Per thread: the number of failed checks and the first few of them.
  std::vector<int> failed(w, 0);
  std::vector<std::string> evidence(w);
  std::vector<std::thread> ths;
  for (int t = 0; t < w; ++t) {
    ths.emplace_back([&, t] {
      Xoshiro256 rng(7000 + t);
      std::vector<bool> mine(kWindow, false);
      const uint64_t own_keys = static_cast<uint64_t>((kWindow - t + w - 1) / w);
      auto own = [&](Key k) { return k % w == t; };
      auto any_own_in = [&](Key lo, Key hi) {
        for (Key k = std::max<Key>(lo, 0); k <= hi && k < kWindow; ++k) {
          if (own(k) && mine[k]) return true;
        }
        return false;
      };
      auto fail = [&](const char* op, Key y, Key got) {
        if (++failed[t] <= 4) {
          std::ostringstream m;
          m << "thread " << t << ": " << op << '(' << y << ") = " << got
            << '\n';
          evidence[t] += m.str();
        }
      };
      for (int i = 0; i < kOps; ++i) {
        const Key k = t + w * static_cast<Key>(rng.bounded(own_keys));
        switch (rng.bounded(4)) {
          case 0:
            set.insert(k);
            mine[k] = true;
            break;
          case 1:
            set.erase(k);
            mine[k] = false;
            break;
          case 2: {
            const Key y = static_cast<Key>(rng.bounded(kWindow)) + 1;
            const Key p = set.predecessor(y);
            const bool ok =
                p == kNoKey ? !any_own_in(0, y - 1)
                            : p >= 0 && p < y && !(own(p) && !mine[p]) &&
                                  !any_own_in(p + 1, y - 1);
            if (!ok) fail("predecessor", y, p);
            break;
          }
          default: {
            const Key y = static_cast<Key>(rng.bounded(kWindow)) - 1;
            const Key s = set.successor(y);
            const bool ok =
                s == kNoKey ? !any_own_in(y + 1, kWindow - 1)
                            : s > y && s < kWindow && !(own(s) && !mine[s]) &&
                                  !any_own_in(y + 1, s - 1);
            if (!ok) fail("successor", y, s);
          }
        }
      }
    });
  }
  for (auto& th : ths) th.join();
  int total = 0;
  std::string report;
  for (int t = 0; t < w; ++t) {
    total += failed[t];
    report += evidence[t];
  }
  EXPECT_EQ(total, 0) << "failed stripe checks with " << w << " threads, "
                      << "first ones per thread:\n"
                      << report;
}

// A preempted query collects hundreds of notifications within one time
// slice, so this is the test that every notification must stay exact.
TEST(LockFreeTrieConc, StripedHotWindowOracle) {
  LockFreeBinaryTrie flat(4096);
  striped_hot_window_oracle(flat);
  ShardedTrie sharded(4096, 8);
  striped_hot_window_oracle(sharded);
}

TEST(LockFreeTrieConc, ProgressUnderHeavyOversubscription) {
  // 24 threads on whatever cores exist: all fixed op counts must finish
  // (a deadlock or livelock would trip the test timeout).
  LockFreeBinaryTrie t(64);
  std::vector<std::thread> ths;
  std::atomic<uint64_t> done{0};
  for (int th = 0; th < 24; ++th) {
    ths.emplace_back([&, th] {
      Xoshiro256 rng(2000 + th);
      for (int i = 0; i < 4000; ++i) {
        Key k = static_cast<Key>(rng.bounded(64));
        switch (rng.bounded(4)) {
          case 0:
            t.insert(k);
            break;
          case 1:
            t.erase(k);
            break;
          case 2:
            (void)t.contains(k);
            break;
          default:
            (void)t.predecessor(k + 1);
        }
      }
      done.fetch_add(1);
    });
  }
  for (auto& th : ths) th.join();
  EXPECT_EQ(done.load(), 24u);
  testutil::quiescent_predecessor_exact(t, 64);
}

TEST(LockFreeTrieConc, SearchNeverBlocksUnderUpdateStorm) {
  LockFreeBinaryTrie t(64);
  t.insert(42);
  std::atomic<bool> stop{false};
  std::vector<std::thread> storm;
  for (int c = 0; c < 6; ++c) {
    storm.emplace_back([&, c] {
      Xoshiro256 rng(3000 + c);
      while (!stop.load()) {
        Key k = static_cast<Key>(rng.bounded(32));
        if (rng.bounded(2)) {
          t.insert(k);
        } else {
          t.erase(k);
        }
      }
    });
  }
  for (int i = 0; i < 300000; ++i) {
    ASSERT_TRUE(t.contains(42));
  }
  stop = true;
  for (auto& th : storm) th.join();
}

}  // namespace
}  // namespace lfbt
