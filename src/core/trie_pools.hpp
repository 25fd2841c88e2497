// Recycling pools for the tries' nodes — notify nodes, announcement
// cells, INS update nodes, DEL update nodes — plus the pin/retire helper
// verbs both tries and the relaxed core share. Together with
// QueryNodePool (lists/pall.hpp) these are every node allocator of the
// tries: the lock-free trie's per-operation nodes, the latest dummies
// TrieCore materialises and the relaxed trie's update nodes.
//
// Lifecycle of an update node (op node or latest dummy):
//   acquire (pop or carve, fields reset)
//   -> published (latest list / dNodePtr / announcements / notify refs)
//   -> superseded by a newer op on the same key AND completed
//   -> mark_retired() — triggered by the superseding op, by the node's
//      own op at its end, or by both (the state CAS dedups)
//   -> last pin dropped (dNodePtr displacement, notify-chain drain,
//      target unpin at the pinning INS node's own retirement)
//   -> Released (claimed exactly once) -> ebr::retire -> grace
//   -> back on the free list.
//
// Why release always routes through ebr::retire even though pins already
// gate it: pins count the references that OUTLIVE guards; guarded
// readers that reached the node through live shared memory (latest
// lists, announcement cells, position words) hold no pin, and the grace
// period is what keeps the storage stable under them. The two mechanisms
// are complementary, not redundant.
#pragma once

#include "core/update_node.hpp"
#include "lists/pall.hpp"
#include "reclaim/node_pool.hpp"
#include "sync/ebr.hpp"

namespace lfbt {

/// Pool of NotifyNodes. A notify node is referenced only by the one
/// notify chain it was pushed onto, so its release needs no pins of its
/// own: the chain drain below is the sole owner at drain time.
class NotifyNodePool {
  struct Traits {
    using Node = NotifyNode;
    static constexpr MemClass kClass = MemClass::kNotifyNode;
    static Node* free_link(Node* n) { return n->next.load(); }
    static void set_free_link(Node* n, Node* next) { n->next.store(next); }
    static void construct(void* p) { ::new (p) NotifyNode(); }
  };
  using Pool = reclaim::RecyclePool<Traits>;

 public:
  static NotifyNode* acquire() {
    auto [n, recycled] = Pool::acquire();
    if (recycled) {
      n->key = 0;
      n->update_node = nullptr;
      n->ext[kPredSide] = n->ext[kSuccSide] = nullptr;
      n->threshold[kPredSide] = kPosInf;
      n->threshold[kSuccSide] = kNegInf;
      n->next.store(nullptr);
    }
    return n;
  }

  static void release(NotifyNode* n) { Pool::release(n); }
  static std::size_t allocated_count() { return Pool::allocated_count(); }
};

/// Pool of announcement cells (both position lists). `next` doubles as
/// the free-list link, as NotifyNode::next does: AnnounceList hands a
/// cell here only one grace period after unlinking it, and release()
/// adds the second (docs/DESIGN.md, "Announcement-cell reclamation"), so
/// no walker or position word still reads its list value.
class AnnCellPool {
  struct Traits {
    using Node = AnnCell;
    static constexpr MemClass kClass = MemClass::kAnnCell;
    static Node* free_link(Node* n) {
      return reinterpret_cast<AnnCell*>(n->next.load());
    }
    static void set_free_link(Node* n, Node* next) {
      n->next.store(reinterpret_cast<uintptr_t>(next));
    }
    static void construct(void* p) { ::new (p) AnnCell(); }
  };
  using Pool = reclaim::RecyclePool<Traits>;

 public:
  static AnnCell* acquire(Key key, UpdateNode* node) {
    auto [c, recycled] = Pool::acquire();
    c->key = key;
    c->node = node;
    c->next.store(0);
    return c;
  }

  static void release(AnnCell* c) { Pool::release(c); }
};

/// Reset of the UpdateNode fields a recycled INS or DEL node carries
/// over from its previous life (the key and the reclaim word are set by
/// the pools themselves).
inline void reset_update_base(UpdateNode* n) {
  n->status.store(UpdateNode::kInactive);
  n->latest_next.store(nullptr);
  n->target.store(nullptr);
  n->stop.store(false);
  n->completed.store(false);
  for (auto& cell : n->ann_cell) cell.store(nullptr);
}

/// Pool of INS update nodes (plain UpdateNode).
class InsNodePool {
  struct Traits {
    using Node = UpdateNode;
    static constexpr MemClass kClass = MemClass::kUpdateNode;
    static Node* free_link(Node* n) { return n->latest_next.load(); }
    static void set_free_link(Node* n, Node* next) {
      n->latest_next.store(next);
    }
    static void construct(void* p) { ::new (p) UpdateNode(0, NodeType::kIns); }
  };
  using Pool = reclaim::RecyclePool<Traits>;

 public:
  static UpdateNode* acquire(Key key) {
    auto [n, recycled] = Pool::acquire();
    n->key = key;
    if (recycled) reset_update_base(n);
    n->reclaim.store(UpdateNode::kStateLive);
    return n;
  }

  static void release(UpdateNode* n) { Pool::release(n); }
  static std::size_t allocated_count() { return Pool::allocated_count(); }
};

/// Pool of DEL update nodes. DelNode's MinRegister is reset with the
/// trie height the caller passes — pools are process-wide, so nodes may
/// travel between tries of different heights across lifetimes.
class DelNodePool {
  struct Traits {
    using Node = DelNode;
    static constexpr MemClass kClass = MemClass::kUpdateNode;
    static Node* free_link(Node* n) {
      return static_cast<Node*>(n->latest_next.load());
    }
    static void set_free_link(Node* n, Node* next) {
      n->latest_next.store(next);
    }
    // Blank height: acquire() resets lower1 with the caller's real trie
    // height before the node is ever published.
    static void construct(void* p) { ::new (p) DelNode(0, 0); }
  };
  using Pool = reclaim::RecyclePool<Traits>;

 public:
  static DelNode* acquire(Key key, uint32_t b) {
    auto [n, recycled] = Pool::acquire();
    n->key = key;
    if (recycled) {
      reset_update_base(n);
      n->upper0.store(0);
      n->del_query_node = nullptr;
      n->del_query_gen = 0;
      for (int side = 0; side < kNumSides; ++side) {
        n->del_ans[side] = kNoKey;
        n->del_ans2[side].store(kUnsetPred);
      }
    }
    n->lower1.reset(b + 1);
    n->reclaim.store(UpdateNode::kStateLive);
    return n;
  }

  static void release(DelNode* n) { Pool::release(n); }
  static std::size_t allocated_count() { return Pool::allocated_count(); }
};

/// Route a Released update node back to its pool.
inline void release_update_to_pool(UpdateNode* u) {
  if (u->is_del()) {
    DelNodePool::release(static_cast<DelNode*>(u));
  } else {
    InsNodePool::release(u);
  }
}

/// Drop a pin; free the node if this was the last pin of a retired node.
inline void unpin_update(UpdateNode* u) {
  if (u->unpin()) release_update_to_pool(u);
}

/// Retire-once actions + release-if-unpinned. Call only once the node is
/// provably superseded (not first-activated) and completed; callers keep
/// those checks because they own the trie context (first_activated lives
/// on TrieCore).
inline void retire_update(UpdateNode* u) {
  if (!u->mark_retired()) return;
  if (!u->is_del()) {
    // An INS node's target pin is dropped at ITS retirement, not at the
    // target's: the pin exists to keep `target` dereferenceable for stop
    // signals aimed at this node's still-running InsertBinaryTrie, and
    // retirement implies that call completed.
    if (DelNode* tg = u->target.load()) unpin_update(tg);
  }
  if (u->try_claim_release()) release_update_to_pool(u);
}

/// Release an acquired-but-never-published update node (CAS losers:
/// their node entered no shared structure, but the pool's free list
/// still wants the grace-period discipline).
inline void retire_unpublished(UpdateNode* u) {
  u->mark_retired();
  if (u->try_claim_release()) release_update_to_pool(u);
}

/// Retire a detached query announcement node: hand it to EBR, and once
/// the grace period has passed — i.e. once no straggling notifier can
/// still push onto its chain and no fallback traversal can still walk
/// it — drain the notify chain (dropping the pins each notify node holds
/// on its update nodes) and put everything back on the free lists.
/// Pre-grace drains would race notifiers that loaded the announcement
/// from the P-ALL before remove_for_reuse marked it.
inline void retire_query_announcement(PredecessorNode* p) {
  MemStats::on_release(MemClass::kQueryNode);
  ebr::retire(p, [](void* vp) {
    auto* node = static_cast<PredecessorNode*>(vp);
    NotifyNode* nn = node->notify_head.load();
    node->notify_head.store(nullptr);
    while (nn != nullptr) {
      NotifyNode* next = nn->next.load();
      unpin_update(nn->update_node);
      for (UpdateNode* ext : nn->ext) {
        if (ext != nullptr) unpin_update(ext);
      }
      NotifyNodePool::release(nn);  // nested ebr::retire; safe mid-sweep
      nn = next;
    }
    QueryNodePool::recycle_now(node);
  });
}

}  // namespace lfbt
