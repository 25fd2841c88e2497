// Announcement-cell reclamation: the pool the U-ALL and RU-ALL draw
// their cells from, and the per-trie quarantine that makes recycling
// those cells sound although their pointers escape into query
// announcements' position words (AtomicCopyWord copies of cell `next`
// words — see sync/atomic_copy.hpp and PredecessorNode::position; the
// RU-ALL is the predecessor side's position list, the U-ALL the
// successor side's).
//
// Position words outlive any guard (a stalled query keeps its position
// forever), and removed cells stay reachable through *frozen* next
// chains: a marked cell's next word is never rewritten, and traversals
// resuming from a stale position walk those chains. One EBR grace period
// after the retract is therefore not enough.
//
// The quarantine closes the gap with a three-stage protocol:
//   stage 1  retract: tombstone-claim ann_cell[side], mark, best-effort
//            unlink, then ebr::retire. The grace period guarantees that
//            afterwards no thread still holds the cell from a list
//            traversal, and — because position words are only ever
//            written by copying cell next words under a guard — that the
//            cell can never again be copied into a *new* position word.
//   stage 2  the retire deleter admits the cell to the owning trie's
//            quarantine. When enough accumulate, a scavenge pass computes
//            the PINNED set: every cell reachable by following stripped
//            `next` pointers from (a) the U-ALL and RU-ALL head
//            sentinels — covering cells whose best-effort unlink failed
//            and every frozen branch hanging off the live chains — and
//            (b) the two position words of every announcement on the
//            P-ALL raw chain (marked nodes included), covering frozen
//            islands only stalled queries still anchor.
//   stage 3  quarantined cells NOT in the pinned set go through
//            AnnCellPool::release — one more grace period, covering
//            readers that loaded a position word before the scan — and
//            only then rejoin the free list. Pinned cells wait for a
//            later pass.
//
// Why the closure is exhaustive: a released cell could only be reached
// through (i) a list chain — impossible, root (a) covered those; (ii) a
// position word — scanned in (b) for on-chain announcements, while an
// off-chain (retired) announcement is reachable only by threads whose
// guard predates its physical P-ALL detach, and such guards also predate
// the stage-3 ebr::retire, so the final grace period covers them; or
// (iii) a frozen next chain — whose head cell is itself reachable only
// via (i)/(ii) and is then in the closure, pinning the whole chain.
// Walks may stray through already-recycled cells (their `next` now
// belongs to a new splice or still carries a stale frozen value); every
// such step only ADDS pins, so straying is conservative, and the visited
// set bounds it.
#pragma once

#include <atomic>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/update_node.hpp"
#include "lists/pall.hpp"
#include "reclaim/mem_stats.hpp"
#include "reclaim/node_pool.hpp"
#include "sync/cacheline.hpp"
#include "sync/ebr.hpp"

namespace lfbt {

/// Process-wide recycling pool for announcement cells (both lists).
/// `retire_next` is the free-list link; `next` keeps its last frozen list
/// value while the cell rests here, so stale closure walks stay benign.
class AnnCellPool {
  struct Traits {
    using Node = AnnCell;
    static constexpr MemClass kClass = MemClass::kAnnCell;
    static Node* free_link(Node* n) { return n->retire_next.load(); }
    static void set_free_link(Node* n, Node* next) {
      n->retire_next.store(next);
    }
    static void construct(void* p) { ::new (p) AnnCell(); }
  };
  using Pool = reclaim::RecyclePool<Traits>;

 public:
  static AnnCell* acquire(Key key, UpdateNode* node) {
    auto [c, recycled] = Pool::acquire();
    // The no-reader window the reset needs is exactly the pool's
    // contract: release required the quarantine's pinned-set proof plus
    // a grace period.
    c->key = key;
    c->node = node;
    c->next.store(0);
    c->retire_next.store(nullptr);
    return c;
  }

  static void release(AnnCell* c) { Pool::release(c); }
  static std::size_t allocated_count() { return Pool::allocated_count(); }
};

/// Per-trie quarantine for retired announcement cells (stage 2 above).
/// Heap-allocated and reference-counted: stage-1 retirements may still be
/// sitting in other threads' EBR limbo when the owning trie is destroyed,
/// and their deleters must find the quarantine alive — the last reference
/// (trie detach or final straggler) drains and deletes it.
class CellQuarantine {
 public:
  CellQuarantine() = default;
  CellQuarantine(const CellQuarantine&) = delete;
  CellQuarantine& operator=(const CellQuarantine&) = delete;

  /// Wire the scan roots — the P-ALL and the per-side position lists'
  /// head sentinels (RU-ALL, U-ALL); call once before any retire (trie
  /// constructor).
  void set_roots(PAll* pall, AnnCell* ruall_head, AnnCell* uall_head) {
    pall_ = pall;
    heads_[kPredSide] = ruall_head;
    heads_[kSuccSide] = uall_head;
  }

  /// Stage 1: hand a tombstone-claimed, marked, (best-effort) unlinked
  /// cell to EBR; after the grace period it is admitted below.
  void retire(AnnCell* c) {
    refs_.fetch_add(1, std::memory_order_relaxed);
    // Park the back-pointer in retire_next — ebr deleters are plain
    // function pointers, so the cell itself carries its destination.
    c->retire_next.store(reinterpret_cast<AnnCell*>(this));
    ebr::retire(c, [](void* p) {
      auto* cell = static_cast<AnnCell*>(p);
      auto* q = reinterpret_cast<CellQuarantine*>(cell->retire_next.load());
      q->admit(cell);
      q->release_ref();
    });
  }

  /// Trie-destructor detach. Requires the trie quiescent; concurrent
  /// stage-1 deleters (other threads sweeping their limbo) are the one
  /// source of concurrency left, handled by the flag + refcount.
  void detach_and_drain() {
    detached_.store(true, std::memory_order_seq_cst);
    // A scavenge that claimed its flag before seeing detached_ may still
    // be walking the trie's P-ALL and list heads; they outlive this call
    // (the caller destroys them after), so just wait it out.
    while (scavenging_.load(std::memory_order_acquire)) {
    }
    release_ref();
  }

 private:
  static constexpr std::size_t kScavengeThreshold = 128;

  ~CellQuarantine() = default;

  void admit(AnnCell* c) {
    if (detached_.load(std::memory_order_acquire)) {
      AnnCellPool::release(c);
      return;
    }
    AnnCell* head = head_.load(std::memory_order_relaxed);
    do {
      c->retire_next.store(head);
    } while (!head_.compare_exchange_weak(head, c, std::memory_order_release,
                                          std::memory_order_relaxed));
    if (count_.fetch_add(1, std::memory_order_relaxed) + 1 >=
        kScavengeThreshold) {
      scavenge();
    }
  }

  void release_ref() {
    if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last reference out (trie detached, no stage-1 deleter in flight):
      // nothing can admit or scan any more — flush stragglers and die.
      AnnCell* c = head_.exchange(nullptr);
      while (c != nullptr) {
        AnnCell* next = c->retire_next.load();
        AnnCellPool::release(c);
        c = next;
      }
      delete this;
    }
  }

  static AnnCell* strip(uintptr_t w) noexcept {
    // Bit 0: AtomicCopyWord descriptor tag domain (resolved reads never
    // return it, but strip defensively); bit 1: the announcement lists'
    // removal mark.
    return reinterpret_cast<AnnCell*>(w & ~uintptr_t(3));
  }

  void scavenge() {
    if (scavenging_.exchange(true, std::memory_order_acq_rel)) return;
    if (detached_.load(std::memory_order_acquire)) {
      scavenging_.store(false, std::memory_order_release);
      return;
    }
    AnnCell* batch = head_.exchange(nullptr);
    if (batch == nullptr) {
      scavenging_.store(false, std::memory_order_release);
      return;
    }
    std::size_t batch_n = 0;
    for (AnnCell* c = batch; c != nullptr; c = c->retire_next.load()) {
      ++batch_n;
    }
    count_.fetch_sub(batch_n, std::memory_order_relaxed);

    std::unordered_set<const AnnCell*> pinned;
    {
      // The guard keeps every P-ALL node reached below unrecycled for the
      // duration of the scan (QueryNodePool's grace discipline).
      ebr::Guard g;
      std::vector<const AnnCell*> work(heads_, heads_ + kNumSides);
      for (PredecessorNode* a = pall_->first_raw(); a != nullptr;
           a = PAll::next_raw(a)) {
        for (AtomicCopyWord& pos : a->position) {
          work.push_back(strip(pos.read()));
        }
      }
      while (!work.empty()) {
        const AnnCell* c = work.back();
        work.pop_back();
        if (c == nullptr || !pinned.insert(c).second) continue;
        work.push_back(strip(c->next.load()));
      }
    }

    std::size_t kept_n = 0;
    while (batch != nullptr) {
      AnnCell* next = batch->retire_next.load();
      if (pinned.count(batch) != 0) {
        // Still anchored somewhere — back into quarantine for a later
        // pass (push raw; re-admitting must not re-trigger scavenge).
        AnnCell* head = head_.load(std::memory_order_relaxed);
        do {
          batch->retire_next.store(head);
        } while (!head_.compare_exchange_weak(head, batch,
                                              std::memory_order_release,
                                              std::memory_order_relaxed));
        ++kept_n;
      } else {
        AnnCellPool::release(batch);  // stage 3: final grace, then reuse
      }
      batch = next;
    }
    count_.fetch_add(kept_n, std::memory_order_relaxed);
    scavenging_.store(false, std::memory_order_release);
  }

  PAll* pall_ = nullptr;
  AnnCell* heads_[kNumSides] = {nullptr, nullptr};

  alignas(kCacheLine) std::atomic<AnnCell*> head_{nullptr};
  std::atomic<std::size_t> count_{0};
  std::atomic<bool> scavenging_{false};
  std::atomic<bool> detached_{false};
  /// 1 owner (trie) + one per in-flight stage-1 retirement.
  std::atomic<std::size_t> refs_{1};
};

}  // namespace lfbt
