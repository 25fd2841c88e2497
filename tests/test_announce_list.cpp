#include "lists/announce_list.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/trie_pools.hpp"
#include "sync/arena.hpp"

namespace lfbt {
namespace {

/// Both position lists wired to a real P-ALL and CellQuarantine, as the
/// trie wires them: every retired cell goes through the quarantine.
struct Lists {
  PAll pall;
  CellQuarantine* quarantine = new CellQuarantine;
  AnnounceList ruall{kPredSide, quarantine};
  AnnounceList uall{kSuccSide, quarantine};

  Lists() { quarantine->set_roots(&pall, ruall.head(), uall.head()); }
  ~Lists() {
    ruall.release_all_cells_for_destruction();
    uall.release_all_cells_for_destruction();
    quarantine->detach_and_drain();
  }
};

UpdateNode* make_node(NodeArena& arena, Key k, bool active = true) {
  auto* n = arena.create<UpdateNode>(k, NodeType::kIns);
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

/// Every cell the pool can hand out right now: acquires as many cells as
/// were ever carved (so the free list runs dry), then gives them back.
std::unordered_set<AnnCell*> pool_free_cells() {
  std::vector<AnnCell*> got(AnnCellPool::allocated_count());
  for (AnnCell*& c : got) c = AnnCellPool::acquire(0, nullptr);
  for (AnnCell* c : got) AnnCellPool::release(c);
  ebr::drain_unsafe();
  return {got.begin(), got.end()};
}

TEST(AnnounceList, AscendingInsertKeepsSortedOrder) {
  NodeArena arena;
  Lists lists;
  for (Key k : {5, 1, 9, 3, 7}) lists.uall.insert(make_node(arena, k));
  EXPECT_EQ(visible_keys(lists.uall), (std::vector<Key>{1, 3, 5, 7, 9}));
}

TEST(AnnounceList, DescendingInsertKeepsReverseOrder) {
  NodeArena arena;
  Lists lists;
  for (Key k : {5, 1, 9, 3, 7}) lists.ruall.insert(make_node(arena, k));
  EXPECT_EQ(visible_keys(lists.ruall), (std::vector<Key>{9, 7, 5, 3, 1}));
}

TEST(AnnounceList, EqualKeysOrderedByInsertionTime) {
  // The paper: a node is added *after* every node with the same key (both
  // lists), giving insertion order among equals.
  NodeArena arena;
  Lists lists;
  AnnounceList& asc = lists.uall;
  AnnounceList& desc = lists.ruall;
  UpdateNode* first = make_node(arena, 4);
  UpdateNode* second = make_node(arena, 4);
  asc.insert(first);
  asc.insert(second);
  EXPECT_EQ(asc.next_visible(asc.head())->node, first);
  desc.insert(first);
  desc.insert(second);
  EXPECT_EQ(desc.next_visible(desc.head())->node, first);
}

TEST(AnnounceList, RemoveHidesNode) {
  NodeArena arena;
  Lists lists;
  AnnounceList& list = lists.uall;
  UpdateNode* a = make_node(arena, 1);
  UpdateNode* b = make_node(arena, 2);
  list.insert(a);
  list.insert(b);
  list.remove(a);
  EXPECT_EQ(visible_keys(list), (std::vector<Key>{2}));
  list.remove(b);
  EXPECT_TRUE(visible_keys(list).empty());
}

TEST(AnnounceList, RemoveIsIdempotent) {
  NodeArena arena;
  Lists lists;
  AnnounceList& list = lists.uall;
  UpdateNode* a = make_node(arena, 1);
  list.insert(a);
  list.remove(a);
  list.remove(a);  // helper + owner both retract
  EXPECT_TRUE(visible_keys(list).empty());
}

TEST(AnnounceList, MultiHelperInsertYieldsOneVisibleAnnouncement) {
  // HelpActivate means several threads may announce the SAME node. Exactly
  // one cell may ever be visible, no matter the interleaving.
  for (int round = 0; round < 100; ++round) {
    NodeArena arena;
    Lists lists;
    AnnounceList& list = lists.uall;
    UpdateNode* n = make_node(arena, 42);
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
    NodeArena arena;
    Lists lists;
    AnnounceList& list = lists.uall;
    UpdateNode* n = make_node(arena, 7);
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
  NodeArena arena;
  Lists lists;
  AnnounceList& list = lists.uall;
  constexpr int kThreads = 4;
  constexpr int kOps = 3000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        UpdateNode* n = make_node(arena, (t * kOps + i) % 97);
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
  NodeArena arena;
  Lists lists;
  AnnounceList& list = lists.ruall;
  for (Key k : {3, 1, 2}) list.insert(make_node(arena, k));
  // Walk raw next words like the RU-ALL traversal does.
  AnnCell* c = list.head();
  std::vector<Key> seen;
  while (c != list.tail()) {
    c = AnnounceList::strip(list.next_word(c)->load());
    if (c != list.tail()) seen.push_back(c->key);
  }
  EXPECT_EQ(seen, (std::vector<Key>{3, 2, 1}));
}

TEST(AnnounceList, QuarantineKeepsUallCellAnchoredByPositionWord) {
  // Successor position words point into the U-ALL, so a retired U-ALL
  // cell must not return to the pool while an announcement on the P-ALL
  // still holds it, and must return once the announcement is gone.
  constexpr Key kBatch = 256;  // two scavenge thresholds' worth of cells
  NodeArena arena;
  Lists lists;
  // The largest key, so the frozen next word of its cell is the tail and
  // pins no other cell.
  UpdateNode* anchored = make_node(arena, 10 * kBatch);
  lists.uall.insert(anchored);
  AnnCell* cell = anchored->ann_cell[kSuccSide].load();
  PredecessorNode* query = QueryNodePool::acquire(0, QueryDir::kSucc);
  query->position[kSuccSide].store(AnnounceList::pack(cell));
  lists.pall.push(query);
  lists.uall.remove(anchored);

  auto retire_batch = [&](Key base) {
    std::vector<AnnCell*> cells;
    for (Key k = base; k < base + kBatch; ++k) {
      UpdateNode* n = make_node(arena, k);
      lists.uall.insert(n);
      cells.push_back(n->ann_cell[kSuccSide].load());
      lists.uall.remove(n);
    }
    ebr::drain_unsafe();  // admit every cell; the scavenges release them
    return cells;
  };

  const std::vector<AnnCell*> others = retire_batch(0);
  ASSERT_EQ(std::count(others.begin(), others.end(), cell), 0);
  std::unordered_set<AnnCell*> free_cells = pool_free_cells();
  EXPECT_EQ(free_cells.count(cell), 0u) << "anchored cell was recycled";
  EXPECT_TRUE(std::any_of(others.begin(), others.end(), [&](AnnCell* c) {
    return free_cells.count(c) != 0;
  })) << "no scavenge released the unanchored cells";

  lists.pall.remove_for_reuse(query);
  retire_query_announcement(query);
  retire_batch(kBatch);
  EXPECT_EQ(pool_free_cells().count(cell), 1u)
      << "cell still held after its announcement left the P-ALL";
}

}  // namespace
}  // namespace lfbt
