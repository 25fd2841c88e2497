// U-ALL / RU-ALL: the update announcement linked lists of Section 5.
//
// A Harris-style sorted lock-free linked list of AnnCells. The U-ALL is
// ascending (head sentinel -inf), the RU-ALL descending (head sentinel
// +inf); both insert a node *after* all cells with an equal key, which
// for the RU-ALL yields "descending by key, then by insertion order" as
// the paper requires. Each list is the position list of one query side:
// predecessors walk the RU-ALL with announced positions, and successors
// walk the U-ALL, whose order ("ascending by key, then by insertion
// order") is exactly the RU-ALL invariant reflected through the key
// order. A list is therefore built from its side alone: the side picks
// the sort order and the UpdateNode::ann_cell slot it claims.
//
// Idempotent multi-helper insertion (needed by HelpActivate, l.130): any
// number of threads may concurrently announce the SAME update node. Each
// splices its own fresh cell, then tries to claim canonicity with
//   CAS(node->ann_cell[side], nullptr, my_cell).
// Exactly one cell wins; losers immediately mark their cell removed.
// Traversals only accept a cell c if node->ann_cell[side] == c, so a
// spurious (losing) cell is never observed as an announcement. This keeps
// the paper's crucial ordering invariant — visible U-ALL presence is
// bracketed by the claim CAS and the retraction's tombstone CAS, which the
// Insert/Delete code orders U-ALL-before-RU-ALL on insertion and on
// removal (Lemma 5.19 depends on removal happening in the U-ALL first).
//
// Removal marks use bit 1 of `next` (bit 0 is reserved by AtomicCopyWord,
// which copies both lists' next words into query announcements).
//
// Memory: cells come from the process-wide AnnCellPool. Retraction claims
// the cell exactly once by CASing ann_cell[side] to kCellRetracted (owner
// and helper may both retract; only the claim winner marks, unlinks and
// retires). Cell pointers of both lists escape into announcement position
// words, so a retired cell waits two chained grace periods before the
// pool reissues it: the first for every walker and every query whose
// position could name it, the second for every notifier that read such a
// position (docs/DESIGN.md, "Announcement-cell reclamation"). CAS
// expected-value comparisons stay ABA-free for the same reason.
#pragma once

#include <cassert>

#include "core/trie_pools.hpp"
#include "core/update_node.hpp"
#include "sync/cacheline.hpp"
#include "sync/ebr.hpp"
#include "sync/stats.hpp"

namespace lfbt {

class AnnounceList {
 public:
  static constexpr uintptr_t kMark = 2;

  static AnnCell* strip(uintptr_t w) noexcept {
    return reinterpret_cast<AnnCell*>(w & ~(kMark | uintptr_t(1)));
  }
  static bool marked(uintptr_t w) noexcept { return (w & kMark) != 0; }
  static uintptr_t pack(AnnCell* c) noexcept { return reinterpret_cast<uintptr_t>(c); }

  /// The position list of query side `side`: the descending RU-ALL on
  /// kPredSide, the ascending U-ALL on kSuccSide.
  explicit AnnounceList(int side) : side_(side) {
    head_.key = descending() ? kPosInf : kNegInf;
    tail_.key = descending() ? kNegInf : kPosInf;
    head_.next.store(pack(&tail_));
  }

  AnnounceList(const AnnounceList&) = delete;
  AnnounceList& operator=(const AnnounceList&) = delete;

  /// Announce `n`. Safe to call from any number of helpers concurrently;
  /// after return, n->ann_cell[side] is non-null (the canonical cell, or
  /// the retraction tombstone if the announcement already came and went).
  void insert(UpdateNode* n) {
    // Own guard (reentrant under the trie's op guard): chain walks must
    // be EBR-protected now that cells recycle, including unguarded
    // callers (unit tests, benches).
    ebr::Guard guard;
    if (n->ann_cell[side_].load() != nullptr) return;  // already announced
    AnnCell* cell = AnnCellPool::acquire(n->key, n);
    splice(cell);
    AnnCell* expected = nullptr;
    if (!n->ann_cell[side_].compare_exchange_strong(expected, cell)) {
      // Another helper's cell is canonical; ours must never be observed as
      // an announcement (traversals check canonicity) — retire it. The
      // loser is this cell's sole owner, so no claim step is needed.
      mark(cell);
      unlink(cell);
      retire(cell);
    }
  }

  /// Retract the announcement of `n`. Requires a prior insert (the trie
  /// always announces before it can complete). Idempotent: the owner and
  /// any helper (l.135) may both call this; the tombstone CAS elects the
  /// one retirer, so the cell is marked/unlinked/retired exactly once —
  /// a second pass must never touch a cell the pool may have reissued.
  void remove(UpdateNode* n) {
    ebr::Guard guard;  // see insert()
    AnnCell* cell = n->ann_cell[side_].load();
    assert(cell != nullptr);
    if (cell == kCellRetracted) return;
    if (!n->ann_cell[side_].compare_exchange_strong(cell, kCellRetracted)) {
      return;  // another retirer claimed it
    }
    mark(cell);
    unlink(cell);
    retire(cell);
  }

  /// Head sentinel (key -inf ascending / +inf descending).
  AnnCell* head() noexcept { return &head_; }
  AnnCell* tail() noexcept { return &tail_; }

  /// First cell after `c` that is not marked, not spurious and not a
  /// sentinel — i.e. the next *visible announcement*; returns the tail
  /// sentinel when none. (Marked-cell skipping does not unlink here; the
  /// writer-side search does the physical cleanup.)
  AnnCell* next_visible(AnnCell* c) const {
    ebr::Guard guard;  // see insert()
    AnnCell* cur = strip(c->next.load());
    Stats::count_read();
    while (cur != &tail_) {
      uintptr_t w = cur->next.load();
      Stats::count_read();
      if (!marked(w) && cur->node->ann_cell[side_].load() == cur) return cur;
      cur = strip(w);
    }
    return cur;
  }

  /// Raw next word of `c` (for the position-list atomic-copy traversals).
  const std::atomic<uintptr_t>* next_word(const AnnCell* c) const noexcept {
    return &c->next;
  }

  /// Destructor-time reclamation (requires quiescence): hand every cell
  /// still chained — the canonical announcements of resident update
  /// nodes — back to the pool. Marked cells are skipped: a marked cell
  /// was already claimed by a retire path (its EBR limbo owns it;
  /// releasing it here would double-free).
  void release_all_cells_for_destruction() {
    AnnCell* c = strip(head_.next.load());
    while (c != &tail_) {
      AnnCell* next = strip(c->next.load());
      if (!marked(c->next.load())) AnnCellPool::release(c);
      c = next;
    }
    head_.next.store(pack(&tail_));
  }

 private:
  bool descending() const noexcept { return side_ == kPredSide; }

  /// key ordering: does `a` precede position of key `k`?
  bool precedes(Key a, Key k) const noexcept {
    // Insert after equal keys: strictly-precedes-or-equal keeps advancing.
    return descending() ? a >= k : a <= k;
  }

  /// Harris search: positions (pred, curr) with pred unmarked at read
  /// time, every key in (pred, curr) strictly "after" k's slot; unlinks
  /// marked cells on the way.
  void search(Key k, AnnCell*& pred, AnnCell*& curr) {
  retry:
    pred = &head_;
    uintptr_t pw = pred->next.load();
    curr = strip(pw);
    for (;;) {
      if (curr == &tail_) return;
      uintptr_t cw = curr->next.load();
      Stats::count_read();
      if (marked(cw)) {
        // Physically unlink curr.
        uintptr_t expected = pack(curr);
        bool ok = pred->next.compare_exchange_strong(expected, pack(strip(cw)));
        Stats::count_cas(ok);
        if (!ok) goto retry;
        curr = strip(cw);
        continue;
      }
      if (!precedes(curr->key, k)) return;
      pred = curr;
      curr = strip(cw);
    }
  }

  void splice(AnnCell* cell) {
    for (;;) {
      AnnCell *pred, *curr;
      search(cell->key, pred, curr);
      cell->next.store(pack(curr));
      uintptr_t expected = pack(curr);
      bool ok = pred->next.compare_exchange_strong(expected, pack(cell));
      Stats::count_cas(ok);
      if (ok) return;
    }
  }

  void mark(AnnCell* cell) {
    uintptr_t w = cell->next.load();
    while (!marked(w)) {
      if (cell->next.compare_exchange_weak(w, w | kMark)) {
        Stats::count_cas(true);
        return;
      }
    }
  }

  /// Physical removal of a marked cell: one complete search pass over
  /// its key. search() restarts on every failed CAS and passes every cell
  /// up to the first unmarked one beyond the key, so it snips `cell`
  /// unless a concurrent pass already did. Either way the cell is
  /// unreachable from the head on return, and a Harris list never links
  /// an unlinked cell again.
  void unlink(AnnCell* cell) {
    AnnCell *pred, *curr;
    search(cell->key, pred, curr);
  }

  /// Hand a marked, unlinked cell to the pool after two chained grace
  /// periods: this retire, then AnnCellPool::release's own.
  static void retire(AnnCell* cell) {
    ebr::retire(cell, [](void* p) {
      AnnCellPool::release(static_cast<AnnCell*>(p));
    });
  }

  const int side_;
  // False-sharing fix (E16 audit, recorded in docs/EXPERIMENTS.md):
  // head_.next is the most-CASed word of every announce list (all inserts
  // splice at or walk from it, and the head-adjacent unlink CAS lands
  // there too), and unpadded it shared a line with tail_ — whose key
  // every traversal termination check reads — and with the const config
  // words above. Line-aligning both sentinels keeps insert-CAS
  // invalidations away from the read-only traversal state. Measured
  // within noise on a 1-core host (no cross-core traffic exists there);
  // the structural argument is the multicore one, same as sync/ebr.cpp.
  alignas(kCacheLine) AnnCell head_;
  alignas(kCacheLine) AnnCell tail_;
};

}  // namespace lfbt
