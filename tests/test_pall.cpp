#include "lists/pall.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <thread>
#include <vector>

#include "ebr_test_util.hpp"

namespace lfbt {
namespace {

// Test-owned nodes: the P-ALL and the notify lists never free the nodes
// pushed onto them, so each test keeps its nodes until it ends. A deque
// keeps them in place as it grows.
using QueryNodes = std::deque<PredecessorNode>;
using NotifyNodes = std::deque<NotifyNode>;

std::vector<Key> live_keys(PAll& pall) {
  std::vector<Key> out;
  for (PredecessorNode* p = pall.first_live(); p != nullptr;
       p = PAll::next_live(p)) {
    out.push_back(p->key);
  }
  return out;
}

TEST(PAll, PushIsLifo) {
  QueryNodes nodes;
  PAll pall;
  for (Key k : {1, 2, 3}) pall.push(&nodes.emplace_back(k));
  EXPECT_EQ(live_keys(pall), (std::vector<Key>{3, 2, 1}));
}

TEST(PAll, RemoveHidesFromLiveTraversal) {
  QueryNodes nodes;
  PAll pall;
  PredecessorNode* a = &nodes.emplace_back(1);
  PredecessorNode* b = &nodes.emplace_back(2);
  PredecessorNode* c = &nodes.emplace_back(3);
  pall.push(a);
  pall.push(b);
  pall.push(c);
  pall.remove(b);
  EXPECT_EQ(live_keys(pall), (std::vector<Key>{3, 1}));
  EXPECT_TRUE(PAll::marked(b->pall_next.load()));
  pall.remove(c);
  pall.remove(a);
  EXPECT_TRUE(live_keys(pall).empty());
}

TEST(PAll, RawChainStaysTraversableThroughRemovedNodes) {
  // PredHelper's Q snapshot walks raw next pointers; a node removed after
  // the snapshot must keep its chain intact.
  QueryNodes nodes;
  PAll pall;
  PredecessorNode* a = &nodes.emplace_back(1);
  PredecessorNode* b = &nodes.emplace_back(2);
  pall.push(a);
  pall.push(b);
  PredecessorNode* snap = pall.first_raw();  // == b
  pall.remove(b);
  EXPECT_EQ(snap, b);
  EXPECT_EQ(PAll::next_raw(snap), a);  // chain intact
}

TEST(PAll, ConcurrentPushRemoveKeepsLiveSetConsistent) {
  constexpr int kThreads = 6;
  constexpr int kOps = 4000;
  std::vector<QueryNodes> nodes(kThreads);
  PAll pall;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        PredecessorNode* p = &nodes[t].emplace_back(t * kOps + i);
        pall.push(p);
        pall.remove(p);  // every announcement retired, like real ops
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_TRUE(live_keys(pall).empty());
}

TEST(NotifyList, PushPrependsNewestFirst) {
  PredecessorNode p(10);
  NotifyNodes nodes;
  for (Key k : {1, 2, 3}) {
    NotifyNode* n = &nodes.emplace_back();
    n->key = k;
    EXPECT_TRUE(NotifyList::push(&p, n, [] { return true; }));
  }
  std::vector<Key> seen;
  for (NotifyNode* n = NotifyList::head(&p); n != nullptr; n = n->next.load()) {
    seen.push_back(n->key);
  }
  EXPECT_EQ(seen, (std::vector<Key>{3, 2, 1}));
}

TEST(NotifyList, FailedValidationAbandonsPush) {
  PredecessorNode p(10);
  NotifyNode n;
  n.key = 5;
  EXPECT_FALSE(NotifyList::push(&p, &n, [] { return false; }));
  EXPECT_EQ(NotifyList::head(&p), nullptr);
}

TEST(NotifyList, ConcurrentPushesAllLand) {
  PredecessorNode p(0);
  constexpr int kThreads = 6;
  constexpr int kPerThread = 2000;
  std::vector<NotifyNodes> nodes(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        NotifyNode* n = &nodes[t].emplace_back();
        n->key = i;
        ASSERT_TRUE(NotifyList::push(&p, n, [] { return true; }));
      }
    });
  }
  for (auto& t : ts) t.join();
  int count = 0;
  for (NotifyNode* n = NotifyList::head(&p); n != nullptr; n = n->next.load()) ++count;
  EXPECT_EQ(count, kThreads * kPerThread);
}

TEST(QueryNodePool, ConcurrentAcquireReleaseIsAbaSafeAndRecycles) {
  // ABA regression for the pool free list (reclaim/node_pool.hpp): if
  // acquire()'s guarded pop were ABA-vulnerable — a node re-entering the
  // free list without a grace period while a popper's compare-exchange is
  // in flight — two threads could be handed the SAME node concurrently.
  // Each thread stamps its acquisition with a thread-unique key and
  // re-reads it under contention; exclusive ownership means the stamp can
  // never change under us. The release() -> grace -> free-list round trip
  // is exactly the window the discipline must keep closed.
  const std::size_t carved_before = QueryNodePool::allocated_count();
  constexpr int kThreads = 6;
  constexpr int kOps = 60000;
  std::atomic<bool> bad{false};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < kOps && !bad.load(std::memory_order_relaxed); ++i) {
        const Key stamp = static_cast<Key>(t) * kOps + i + 1;
        PredecessorNode* p = QueryNodePool::acquire(stamp, QueryDir::kBoth);
        for (int spin = 0; spin < 16; ++spin) {
          if (p->key != stamp) {
            bad.store(true, std::memory_order_relaxed);
            break;
          }
        }
        QueryNodePool::release(p);  // never published; extra grace is free
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_FALSE(bad.load());
  // Recycling bound: fresh carves track the limbo high-water (nodes
  // retired but not yet past their grace period), not the acquisition
  // count. This loop is the worst case for limbo — every op is a retire
  // and every thread is always inside a guard — so the high-water is
  // fat; carves still stay well under the acquisition count, and grow
  // sub-linearly with kOps where a recycling failure would be linear.
  const std::size_t carved =
      QueryNodePool::allocated_count() - carved_before;
  EXPECT_LT(carved, static_cast<std::size_t>(kThreads) * kOps / 3);
}

}  // namespace
}  // namespace lfbt
