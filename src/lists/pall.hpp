// P-ALL: the query announcement linked list of Section 5 (the paper's
// predecessor announcement list, holding single-direction announcements
// and the fused direction pairs every Delete embeds —
// PredecessorNode::dir distinguishes them), plus the insert-only notify
// lists hanging off each announced node, plus the EBR-backed recycling
// pool the trie returns retired announcement nodes to.
//
// The P-ALL is an unsorted lock-free list with LIFO insertion at the head
// and mark-based removal (mark bit 0 of the intrusive `pall_next` hook).
// Removed nodes stay traversable — the paper's PredHelper deliberately
// walks `next` chains that may pass through retired announcements (its Q
// sequence), and DEL nodes keep `delQueryNode` references to completed
// embedded queries. Marked nodes are physically snipped opportunistically
// to keep traversals short; nodes destined for reuse go through
// remove_for_reuse, which additionally *guarantees* physical detachment
// (see below). One shared list (rather than a per-direction pair) keeps
// every notifier walking a single chain; readers filter by `dir` only
// where direction matters (the ⊥-fallback's pointer matching).
//
// Next-word discipline (Harris): a node's `pall_next` is only ever
// CAS-written while unmarked — marking sets the mark bit, so any unlink
// CAS whose expected value predates the mark fails. Hence a marked
// node's successor pointer is frozen, and once a marked node is
// unreachable from the head it can never be re-linked: every CAS that
// would bridge *to* it requires an expected value that the unlinking
// steps already overwrote. That invariant is what makes recycling sound:
// remove_for_reuse returns only when the node is provably off the chain,
// after which an EBR grace period (sync/ebr.hpp) outlasts every thread
// that could still hold a reference from an older traversal.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/update_node.hpp"
#include "reclaim/node_pool.hpp"
#include "sync/cacheline.hpp"
#include "sync/ebr.hpp"
#include "sync/stats.hpp"

namespace lfbt {

class PAll {
 public:
  static constexpr uintptr_t kMark = 1;

  static PredecessorNode* strip(uintptr_t w) noexcept {
    return reinterpret_cast<PredecessorNode*>(w & ~kMark);
  }
  static bool marked(uintptr_t w) noexcept { return (w & kMark) != 0; }
  static uintptr_t pack(PredecessorNode* n) noexcept {
    return reinterpret_cast<uintptr_t>(n);
  }

  /// Push `n` at the head (paper l.209: announcements go to the front).
  void push(PredecessorNode* n) {
    // The head word itself is never marked; only node hooks are.
    uintptr_t h = head_.value.load();
    do {
      n->pall_next.store(h);
    } while (!head_.value.compare_exchange_weak(h, pack(n)));
    Stats::count_cas(true);
  }

  /// Logically remove `n` (mark); then best-effort physical unlink.
  void remove(PredecessorNode* n) {
    uintptr_t w = n->pall_next.load();
    while (!marked(w)) {
      if (n->pall_next.compare_exchange_weak(w, w | kMark)) break;
    }
    snip(n);
  }

  /// remove(), plus a guarantee on return: `n` is physically unreachable
  /// from the head, so after an EBR grace period it may be recycled (its
  /// `pall_next` reused as a free-list link). Loops snip passes until a
  /// raw-chain walk no longer finds `n`; each failed pass implies a
  /// concurrent CAS succeeded, so the loop is lock-free in the usual
  /// helping sense. Cost O(chain length) — the same order as the Q
  /// snapshot every query already takes.
  void remove_for_reuse(PredecessorNode* n) {
    remove(n);
    while (reachable(n)) snip(n);
  }

  /// True iff `n` is on the raw chain (marked nodes included).
  bool reachable(const PredecessorNode* n) const {
    for (PredecessorNode* it = first_raw(); it != nullptr; it = next_raw(it)) {
      if (it == n) return true;
    }
    return false;
  }

  /// First node in the list, including logically removed ones (raw chain
  /// traversal, as used for the paper's Q sequence).
  PredecessorNode* first_raw() const {
    return strip(head_.value.load());
  }

  /// Raw successor in the chain (marked nodes included).
  static PredecessorNode* next_raw(PredecessorNode* n) {
    return strip(n->pall_next.load());
  }

  /// First *live* (unmarked) node at or after `n`; used by notifiers,
  /// which only need to reach announcements that are still active.
  PredecessorNode* first_live() const {
    PredecessorNode* n = first_raw();
    while (n != nullptr && marked(n->pall_next.load())) n = next_raw(n);
    return n;
  }
  static PredecessorNode* next_live(PredecessorNode* n) {
    n = next_raw(n);
    while (n != nullptr && marked(n->pall_next.load())) n = next_raw(n);
    return n;
  }

 private:
  /// Physically unlink marked nodes on the path to `target` (and any other
  /// marked nodes encountered). Best effort: a failed CAS just leaves the
  /// node for the next pass.
  void snip(PredecessorNode* target) {
    // Unlink from the head first if applicable.
    for (;;) {
      uintptr_t h = head_.value.load();
      PredecessorNode* first = strip(h);
      if (first == nullptr) return;
      uintptr_t fw = first->pall_next.load();
      if (!marked(fw)) break;
      if (head_.value.compare_exchange_strong(h, fw & ~kMark)) {
        Stats::count_cas(true);
        if (first == target) return;
        continue;
      }
    }
    PredecessorNode* pred = first_raw();
    while (pred != nullptr) {
      uintptr_t pw = pred->pall_next.load();
      PredecessorNode* cur = strip(pw);
      if (cur == nullptr) return;
      uintptr_t cw = cur->pall_next.load();
      if (marked(cw) && !marked(pw)) {
        // pred live, cur marked: snip cur.
        uintptr_t expected = pw;
        pred->pall_next.compare_exchange_strong(expected, cw & ~kMark);
        continue;  // re-examine pred's new successor
      }
      pred = cur;
    }
  }

  // False-sharing fix (E16 audit, recorded in docs/EXPERIMENTS.md):
  // every announce (push) and snip CASes this word, and PAll lives
  // embedded inside the trie object next to whatever members the
  // structure declares around it — unpadded, the head shared a line with
  // the trie's root/limits words that every operation reads. One line for
  // the head keeps announce-traffic invalidations off the read-mostly
  // fields. Like the EBR announce split (sync/ebr.cpp), a 1-core host
  // measured this within noise; the hazard is cross-core invalidation,
  // which needs multicore.
  PaddedAtomic<uintptr_t> head_{};
};

/// Insert-only notification list (paper SendNotification, l.156–161 —
/// minus the FirstActivated gate, which the trie applies at the call
/// site because it owns the update-node semantics).
class NotifyList {
 public:
  /// Publishes nNode at the head of pNode's list. `validate` is evaluated
  /// after linking nNode->next and immediately before the CAS; if it
  /// returns false the push is abandoned (paper l.160) and false returned.
  template <class Validate>
  static bool push(PredecessorNode* p, NotifyNode* n, Validate&& validate) {
    for (;;) {
      NotifyNode* head = p->notify_head.load();
      n->next.store(head);
      if (!validate()) return false;
      NotifyNode* expected = head;
      bool ok = p->notify_head.compare_exchange_strong(expected, n);
      Stats::count_cas(ok);
      if (ok) return true;
    }
  }

  static NotifyNode* head(const PredecessorNode* p) {
    return p->notify_head.load();
  }
};

/// Process-wide recycling pool for PredecessorNodes. Query announcement
/// nodes are the highest-churn allocation of the query hot path (one per
/// predecessor/successor, one per embedded fused query of every Delete),
/// and nothing references them once they leave the P-ALL, so they are
/// recycled without the pins that update nodes need.
///
/// Lifecycle: acquire() (pop or heap-allocate) → announce/use →
/// PAll::remove_for_reuse (mark + guaranteed physical detach) →
/// release() (ebr::retire) → grace period → back on the free list.
///
/// Soundness (the full argument lives on RecyclePool,
/// reclaim/node_pool.hpp):
///  * release() requires the node to be detached from the P-ALL
///    (remove_for_reuse). Stale *references* from concurrent traversals
///    are exactly what the grace period waits out; stale *pointer
///    identity* held beyond it (DelNode::del_query_node) is disarmed by
///    the generation counter bumped on every reuse.
///  * Node storage is immortal pool-slab memory — the pool is
///    trie-agnostic (a node may serve many tries over its life), trie
///    destruction needs no coordination with in-flight retirements, and
///    leak checkers see every node as reachable. Peak memory is bounded
///    by the process's high-water mark of concurrent + limbo query
///    nodes, which recycling keeps at O(threads).
class QueryNodePool {
  struct Traits {
    using Node = PredecessorNode;
    static constexpr MemClass kClass = MemClass::kQueryNode;
    static Node* free_link(Node* n) {
      return reinterpret_cast<Node*>(n->pall_next.load());
    }
    static void set_free_link(Node* n, Node* next) {
      n->pall_next.store(reinterpret_cast<uintptr_t>(next));
    }
    static void construct(void* p) { ::new (p) PredecessorNode(0); }
  };
  using Pool = reclaim::RecyclePool<Traits>;

 public:
  /// Pop a recycled node or carve a fresh one, reset for (key, dir).
  static PredecessorNode* acquire(Key key, QueryDir dir) {
    auto [n, recycled] = Pool::acquire();
    if (!recycled) Stats::count_query_node_alloc();
    // Reset fields individually — deliberately NOT a destroy +
    // placement-new (see RecyclePool's recipe comment); `pall_next` is
    // only ever touched through atomic operations (the upcoming
    // PAll::push overwrites it).
    n->key = key;
    n->dir = dir;
    n->notify_head.store(nullptr);
    for (int side = 0; side < kNumSides; ++side) n->position[side].store(0);
    ++n->gen;
    return n;
  }

  /// Hand a detached node to EBR; it rejoins the free list after the
  /// grace period. The trie instead uses retire_query_announcement
  /// (core/trie_pools.hpp), which composes the notify-chain drain into
  /// the post-grace deleter before calling recycle_now below.
  static void release(PredecessorNode* n) { Pool::release(n); }

  /// Post-grace hand-back for composed deleters; see
  /// RecyclePool::recycle_now for the legality condition.
  static void recycle_now(PredecessorNode* n) { Pool::recycle_now(n); }

  /// Nodes ever allocated fresh (not currently live) — test observability.
  static std::size_t allocated_count() { return Pool::allocated_count(); }
};

}  // namespace lfbt
