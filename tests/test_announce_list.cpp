#include "lists/announce_list.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <thread>
#include <vector>

#include "core/trie_pools.hpp"
#include "reclaim/mem_stats.hpp"
#include "sync/random.hpp"

namespace lfbt {
namespace {

/// Both position lists beside a P-ALL, as the trie holds them.
struct Lists {
  PAll pall;
  AnnounceList ruall{kPredSide};
  AnnounceList uall{kSuccSide};

  ~Lists() {
    ruall.release_all_cells_for_destruction();
    uall.release_all_cells_for_destruction();
  }
};

/// Test-owned update nodes: the lists never free the nodes they
/// announce, so each test keeps its nodes until it ends. A deque keeps
/// them in place as it grows.
using NodeStore = std::deque<UpdateNode>;

UpdateNode* make_node(NodeStore& nodes, Key k, bool active = true) {
  UpdateNode* n = &nodes.emplace_back(k, NodeType::kIns);
  if (active) n->status.store(UpdateNode::kActive);
  return n;
}

std::vector<Key> visible_keys(AnnounceList& list) {
  std::vector<Key> out;
  for (AnnCell* c = list.next_visible(list.head()); c != list.tail();
       c = list.next_visible(c)) {
    out.push_back(c->key);
  }
  return out;
}

/// Whether `c` is on the pool's free list now: pops the whole free list
/// (up to the first freshly carved cell), then hands every popped cell
/// back through the normal release.
bool pooled(const AnnCell* c) {
  std::vector<AnnCell*> got;
  bool found = false;
  for (;;) {
    const uint64_t recycled = MemStats::snapshot(MemClass::kAnnCell).recycled;
    AnnCell* g = AnnCellPool::acquire(0, nullptr);
    got.push_back(g);
    if (MemStats::snapshot(MemClass::kAnnCell).recycled == recycled) break;
    found |= g == c;
  }
  for (AnnCell* g : got) AnnCellPool::release(g);
  return found;
}

/// Whether `c` is on the raw chain of `list` (marked cells included).
bool linked(AnnounceList& list, const AnnCell* c) {
  for (AnnCell* x = AnnounceList::strip(list.head()->next.load());
       x != list.tail(); x = AnnounceList::strip(x->next.load())) {
    if (x == c) return true;
  }
  return false;
}

void wait_for(const std::atomic<int>& phase, int at_least) {
  while (phase.load() < at_least) std::this_thread::yield();
}

TEST(AnnounceList, AscendingInsertKeepsSortedOrder) {
  NodeStore nodes;
  Lists lists;
  for (Key k : {5, 1, 9, 3, 7}) lists.uall.insert(make_node(nodes, k));
  EXPECT_EQ(visible_keys(lists.uall), (std::vector<Key>{1, 3, 5, 7, 9}));
}

TEST(AnnounceList, DescendingInsertKeepsReverseOrder) {
  NodeStore nodes;
  Lists lists;
  for (Key k : {5, 1, 9, 3, 7}) lists.ruall.insert(make_node(nodes, k));
  EXPECT_EQ(visible_keys(lists.ruall), (std::vector<Key>{9, 7, 5, 3, 1}));
}

TEST(AnnounceList, EqualKeysOrderedByInsertionTime) {
  // The paper: a node is added *after* every node with the same key (both
  // lists), giving insertion order among equals.
  NodeStore nodes;
  Lists lists;
  AnnounceList& asc = lists.uall;
  AnnounceList& desc = lists.ruall;
  UpdateNode* first = make_node(nodes, 4);
  UpdateNode* second = make_node(nodes, 4);
  asc.insert(first);
  asc.insert(second);
  EXPECT_EQ(asc.next_visible(asc.head())->node, first);
  desc.insert(first);
  desc.insert(second);
  EXPECT_EQ(desc.next_visible(desc.head())->node, first);
}

TEST(AnnounceList, RemoveHidesNode) {
  NodeStore nodes;
  Lists lists;
  AnnounceList& list = lists.uall;
  UpdateNode* a = make_node(nodes, 1);
  UpdateNode* b = make_node(nodes, 2);
  list.insert(a);
  list.insert(b);
  list.remove(a);
  EXPECT_EQ(visible_keys(list), (std::vector<Key>{2}));
  list.remove(b);
  EXPECT_TRUE(visible_keys(list).empty());
}

TEST(AnnounceList, RemoveIsIdempotent) {
  NodeStore nodes;
  Lists lists;
  AnnounceList& list = lists.uall;
  UpdateNode* a = make_node(nodes, 1);
  list.insert(a);
  list.remove(a);
  list.remove(a);  // helper + owner both retract
  EXPECT_TRUE(visible_keys(list).empty());
}

TEST(AnnounceList, MultiHelperInsertYieldsOneVisibleAnnouncement) {
  // HelpActivate means several threads may announce the SAME node. Exactly
  // one cell may ever be visible, no matter the interleaving.
  for (int round = 0; round < 100; ++round) {
    NodeStore nodes;
    Lists lists;
    AnnounceList& list = lists.uall;
    UpdateNode* n = make_node(nodes, 42);
    constexpr int kHelpers = 6;
    std::vector<std::thread> ts;
    std::atomic<bool> go{false};
    for (int t = 0; t < kHelpers; ++t) {
      ts.emplace_back([&] {
        while (!go.load()) {
        }
        list.insert(n);
      });
    }
    go = true;
    for (auto& t : ts) t.join();
    auto keys = visible_keys(list);
    ASSERT_EQ(keys.size(), 1u) << "round " << round;
    EXPECT_EQ(keys[0], 42);
    EXPECT_EQ(n->ann_cell[kSuccSide].load()->node, n);
    list.remove(n);
    EXPECT_TRUE(visible_keys(list).empty());
  }
}

TEST(AnnounceList, SpuriousCellsAreNeverVisibleAfterRemove) {
  // Insert with racing helpers, then remove; re-traversals must never
  // resurrect the node (the canonicity filter).
  for (int round = 0; round < 50; ++round) {
    NodeStore nodes;
    Lists lists;
    AnnounceList& list = lists.uall;
    UpdateNode* n = make_node(nodes, 7);
    std::atomic<bool> go{false};
    std::thread helper([&] {
      while (!go.load()) {
      }
      list.insert(n);
    });
    go = true;
    list.insert(n);
    list.remove(n);
    helper.join();
    // Even if the helper's insert landed after remove, its cell lost the
    // canonicity claim (or the canonical one is marked): nothing visible.
    EXPECT_TRUE(visible_keys(list).empty()) << "round " << round;
  }
}

TEST(AnnounceList, ConcurrentInsertRemoveStress) {
  constexpr int kThreads = 4;
  constexpr int kOps = 3000;
  std::vector<NodeStore> nodes(kThreads);
  Lists lists;
  AnnounceList& list = lists.uall;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        UpdateNode* n = make_node(nodes[t], (t * kOps + i) % 97);
        list.insert(n);
        if (i % 2 == 0) list.remove(n);
      }
    });
  }
  for (auto& t : ts) t.join();
  // Remaining visible keys must be sorted.
  auto keys = visible_keys(list);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys.size(), static_cast<std::size_t>(kThreads) * kOps / 2);
}

TEST(AnnounceList, NextWordExposesTraversableChain) {
  NodeStore nodes;
  Lists lists;
  AnnounceList& list = lists.ruall;
  for (Key k : {3, 1, 2}) list.insert(make_node(nodes, k));
  // Walk raw next words like the RU-ALL traversal does.
  AnnCell* c = list.head();
  std::vector<Key> seen;
  while (c != list.tail()) {
    c = AnnounceList::strip(list.next_word(c)->load());
    if (c != list.tail()) seen.push_back(c->key);
  }
  EXPECT_EQ(seen, (std::vector<Key>{3, 2, 1}));
}

TEST(AnnounceList, RetiredCellOutlivesNotifierThatReadItsPosition) {
  // The second grace period (docs/DESIGN.md, "Announcement-cell
  // reclamation"): a query announces a position naming cell C, C is
  // retracted, a notifier reads that position, then the query leaves and
  // ends its guard. C must stay out of the pool until the notifier's
  // guard ends too, and return after it.
  NodeStore nodes;
  Lists lists;
  UpdateNode* n = make_node(nodes, 5);
  AnnCell* cell = nullptr;
  AnnCell* seen = nullptr;
  std::atomic<int> phase{0};
  std::thread query([&] {
    ebr::Guard g;
    lists.uall.insert(n);
    cell = n->ann_cell[kSuccSide].load();
    PredecessorNode* p = QueryNodePool::acquire(0, QueryDir::kSucc);
    p->position[kSuccSide].store(AnnounceList::pack(cell));
    lists.pall.push(p);
    phase = 1;
    wait_for(phase, 3);
    lists.pall.remove_for_reuse(p);  // leaves the P-ALL, then the guard ends
    retire_query_announcement(p);
  });
  std::thread notifier([&] {
    wait_for(phase, 2);
    ebr::Guard g;
    PredecessorNode* p = lists.pall.first_live();
    seen = AnnounceList::strip(p->position[kSuccSide].read());
    phase = 3;
    wait_for(phase, 4);
  });
  wait_for(phase, 1);
  lists.uall.remove(n);
  phase = 2;
  query.join();
  ASSERT_EQ(seen, cell);
  for (int i = 0; i < 256; ++i) ebr::collect();
  EXPECT_FALSE(pooled(cell)) << "cell reissued while a notifier holds it";
  phase = 4;
  notifier.join();
  bool back = false;
  for (int i = 0; i < 256 && !back; ++i) {
    ebr::collect();
    back = pooled(cell);
  }
  EXPECT_TRUE(back) << "cell never returned to the pool";
}

TEST(AnnounceList, RemovedCellIsUnreachableFromEitherHead) {
  // remove() ends with a complete search pass over the cell's key, so on
  // return the cell is off its list's chain, even while other threads'
  // passes race it. The guard spans remove and the walk, so the pool
  // cannot reissue the cell in between.
  constexpr int kThreads = 4;
  constexpr int kOps = 4000;
  std::vector<NodeStore> nodes(kThreads);
  Lists lists;
  constexpr int kLive = 4;  // announcements each thread keeps in the lists
  std::atomic<int> stranded{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      Xoshiro256 rng(1000 + t);
      std::deque<UpdateNode*> live;
      for (int i = 0; i < kOps; ++i) {
        UpdateNode* n = make_node(nodes[t], static_cast<Key>(rng.bounded(16)));
        lists.uall.insert(n);
        lists.ruall.insert(n);
        live.push_back(n);
        if (live.size() <= kLive) continue;
        UpdateNode* old = live.front();
        live.pop_front();
        for (AnnounceList* list : {&lists.uall, &lists.ruall}) {
          ebr::Guard g;
          AnnCell* c = old->ann_cell[list == &lists.uall ? kSuccSide
                                                         : kPredSide].load();
          list->remove(old);
          if (linked(*list, c)) stranded.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(stranded.load(), 0) << "removed cells still linked after remove";
}

}  // namespace
}  // namespace lfbt
