#include "sync/stats.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace lfbt {
namespace {

TEST(Stats, LocalCountersAccumulate) {
  Stats::reset();
  StepCounts before = Stats::local();
  Stats::count_read(3);
  Stats::count_cas(true);
  Stats::count_cas(false);
  Stats::count_min_write();
  Stats::count_help();
  StepCounts delta = Stats::local() - before;
  EXPECT_EQ(delta.reads, 3u);
  EXPECT_EQ(delta.cas_attempts, 2u);
  EXPECT_EQ(delta.cas_successes, 1u);
  EXPECT_EQ(delta.min_writes, 1u);
  EXPECT_EQ(delta.helps, 1u);
}

TEST(Stats, QueryPathCountersAccumulate) {
  Stats::reset();
  StepCounts before = Stats::local();
  Stats::count_query_helper(/*fused=*/false);
  Stats::count_query_helper(/*fused=*/true);
  Stats::count_query_helper(/*fused=*/true);
  Stats::count_query_node_alloc();
  StepCounts delta = Stats::local() - before;
  EXPECT_EQ(delta.query_helpers, 3u);
  EXPECT_EQ(delta.fused_queries, 2u);
  EXPECT_EQ(delta.query_node_allocs, 1u);
}

TEST(Stats, AggregateSumsAcrossThreads) {
  Stats::reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) Stats::count_read();
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_GE(Stats::aggregate().reads,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(Stats, AggregateWhileThreadsCountIsExactAndMonotone) {
  // A reporting thread reads every slot while the owners count, as a
  // bench's before/after delta does. Under TSan this checks that the
  // slot protocol is race-free; in every build, that concurrent
  // aggregates never go back and no single-writer increment is lost.
  Stats::reset();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) Stats::count_read();
    });
  }
  uint64_t last = 0;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t now = Stats::aggregate().reads;
    ASSERT_GE(now, last);
    last = now;
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(Stats::aggregate().reads,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(Stats, ArithmeticOperators) {
  StepCounts a{10, 5, 3, 2, 1, 0};
  StepCounts b{4, 2, 1, 1, 0, 0};
  StepCounts d = a - b;
  EXPECT_EQ(d.reads, 6u);
  EXPECT_EQ(d.cas_attempts, 3u);
  d += b;
  EXPECT_EQ(d.reads, 10u);
  EXPECT_EQ(a.total(), 10u + 5u + 2u);
}

TEST(Stats, ResetZeroesEverything) {
  Stats::count_read(100);
  Stats::reset();
  StepCounts agg = Stats::aggregate();
  EXPECT_EQ(agg.reads, 0u);
  EXPECT_EQ(agg.cas_attempts, 0u);
}

}  // namespace
}  // namespace lfbt
