// RecyclePool: the QueryNodePool recipe (PR 4, lists/pall.hpp) as a
// reusable template — an EBR-backed free list over immortal slab
// storage, fronted by per-thread magazines (Bonwick & Adams, "Magazines
// and Vmem", USENIX ATC 2001), one instantiation per hot allocation
// class (query nodes, notify nodes, update nodes, announcement cells).
//
// The recipe, restated once here instead of per class:
//  * Each ThreadRegistry slot owns one magazine per class: a free stack
//    of plain fields, padded to a cache line and touched only by the
//    slot's owner. release()'s post-grace deleter pushes onto the
//    calling thread's magazine; acquire() pops from it first. Neither
//    takes a shared read-modify-write, nor do the MemStats and
//    ebr::pending() counts they make (per-slot counters), so in steady
//    state — a thread reusing what its own EBR sweeps hand back — a
//    pooled node's acquire/release cycle costs no read-modify-write on
//    a line all threads share.
//  * When a magazine reaches 2 * kSpill nodes, its top kSpill go to the
//    shared Treiber list in one chain CAS. When it is empty, acquire()
//    pops ONE node from the shared list under an ebr::Guard (taken
//    internally, and only when the list is non-empty) and hands it
//    straight to the caller; only then does it carve fresh slab space.
//    Carving is per slot too: one slab fetch_add hands the slot kSpill
//    strides, which it bumps through. Magazines stay with their slot
//    when a thread exits, and the next thread to claim the slot inherits
//    them, so fewer than 2 * kSpill nodes per slot per class are held
//    back and no thread-exit hook is needed.
//  * The ABA rule the shared pop relies on: a node re-enters the shared
//    list only after a grace period that began after it was last popped
//    from that list. A popper reads head == n and n's free-link inside
//    its guard; any later pop-and-return of n runs through ebr::retire +
//    a full grace period, which cannot elapse while that guard is live,
//    so the popper's compare-exchange never sees n come back with a
//    different link. Magazines keep the rule because a node enters one
//    only from a post-grace deleter (after its last pop), and a spill
//    pushes only magazine nodes. That is also why acquire() never
//    refills a magazine from the shared list: a later spill could push
//    those nodes back with no grace period in between.
//  * release() requires the node to be *physically detached* from every
//    shared structure (list unlinks completed, no new references
//    creatable). The grace period then outlasts every thread that could
//    still hold a stale reference from an older traversal. There is
//    deliberately no push-without-grace: an immediate re-push would
//    reopen the ABA window above.
//  * Recycled nodes are handed back with stale fields; the caller resets
//    them individually (never destroy + placement-new, which would end
//    and restart atomic members' lifetimes with non-atomic stores while a
//    losing concurrent popper may still be reading the free-list link).
//    Fresh nodes come blank from Traits::construct.
//  * Slabs are immortal and threaded on a chain: stale EBR-protected
//    readers always dereference mapped memory, leak checkers see every
//    node as reachable, and pointer-identity schemes (generation
//    counters, pin words) stay sound because storage never returns to
//    the general heap.
//
// Traits contract:
//   struct XTraits {
//     using Node = X;
//     static constexpr MemClass kClass = MemClass::k...;
//     static Node* free_link(Node* n);            // atomic load
//     static void set_free_link(Node* n, Node* next);  // atomic store
//     static void construct(void* storage);       // placement-new, blank
//   };
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

#include "reclaim/mem_stats.hpp"
#include "sync/cacheline.hpp"
#include "sync/ebr.hpp"
#include "sync/thread_registry.hpp"

namespace lfbt::reclaim {

template <class Traits>
class RecyclePool {
 public:
  using Node = typename Traits::Node;

  /// Spill batch: a magazine that reaches 2 * kSpill nodes moves kSpill
  /// of them to the shared list, so it holds at most 2 * kSpill - 1.
  static constexpr std::uint32_t kSpill = 64;

  struct Acquired {
    Node* node;
    bool recycled;  // true => fields are stale, caller must reset them
  };

  /// Pop a recycled node (own magazine, else one from the shared list)
  /// or carve + blank-construct a fresh one. Safe with or without an
  /// enclosing ebr::Guard (the shared pop takes its own).
  static Acquired acquire() {
    Magazine& m = magazine();
    if (Node* n = m.top) {
      m.top = Traits::free_link(n);
      --m.count;
      MemStats::on_acquire(Traits::kClass, /*recycled=*/true);
      return {n, true};
    }
    if (free_head().load(std::memory_order_relaxed) != nullptr) {
      ebr::Guard g;
      Node* n = free_head().load(std::memory_order_acquire);
      while (n != nullptr &&
             !free_head().compare_exchange_weak(n, Traits::free_link(n),
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
      }
      if (n != nullptr) {
        MemStats::on_acquire(Traits::kClass, /*recycled=*/true);
        return {n, true};
      }
    }
    void* storage = carve(m);
    Traits::construct(storage);
    MemStats::on_acquire(Traits::kClass, /*recycled=*/false);
    return {static_cast<Node*>(storage), false};
  }

  /// Hand a detached node to EBR; after the grace period it joins the
  /// magazine of the thread that runs the deleter. Also the right call
  /// for acquired-but-never-published nodes (CAS losers): the extra grace
  /// period costs nothing and keeps every path ABA-safe.
  static void release(Node* n) {
    MemStats::on_release(Traits::kClass);
    ebr::retire(n, [](void* p) { push_free(static_cast<Node*>(p)); });
  }

  /// Push a node straight onto the magazine, skipping release()'s
  /// ebr::retire. Only legal from a context that is itself past a grace
  /// period for the node (an ebr deleter of a retire that followed the
  /// node's detachment) — callers who composed extra teardown work into
  /// a custom deleter use this for the final hand-back, and count the
  /// release themselves (MemStats::on_release) at retire time.
  static void recycle_now(Node* n) { push_free(n); }

  /// Nodes ever carved from slabs (== fresh allocations; recycled
  /// acquisitions don't count): the per-slot carve counts, summed. Exact
  /// while no thread carves. Test observability.
  static std::size_t allocated_count() noexcept {
    std::size_t n = 0;
    for (const Padded<Magazine>& m : magazines()) {
      n += m.value.carved.load(std::memory_order_relaxed);
    }
    return n;
  }

 private:
  static constexpr std::size_t kSlabBytes = 256 * 1024;
  static constexpr std::size_t kStride =
      (sizeof(Node) + alignof(std::max_align_t) - 1) &
      ~(alignof(std::max_align_t) - 1);

  struct Slab {
    Slab* next;
    std::atomic<std::size_t> used{0};
    std::size_t payload;
    alignas(std::max_align_t) char data[1];  // flexible tail
  };

  // Owner-only free stack of one ThreadRegistry slot (see the recipe).
  // `spill_tail` is the node at depth kSpill + 1 from the bottom, valid
  // while count > kSpill: the top kSpill nodes run from `top` to it.
  // [carve_next, carve_end) is the slot's uncarved batch of slab strides;
  // `carved` counts its carves (single writer, read by allocated_count).
  struct Magazine {
    Node* top = nullptr;
    Node* spill_tail = nullptr;
    std::uint32_t count = 0;
    char* carve_next = nullptr;
    char* carve_end = nullptr;
    std::atomic<std::size_t> carved{0};
  };

  /// Bump-allocates one stride from the slot's batch, refilling the batch
  /// with kSpill strides per shared slab fetch_add.
  static void* carve(Magazine& m) {
    if (m.carve_next == m.carve_end) refill(m);
    void* out = m.carve_next;
    m.carve_next += kStride;
    m.carved.store(m.carved.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
    return out;
  }

  static void refill(Magazine& m) {
    constexpr std::size_t kBatch = kSpill * kStride;
    for (;;) {
      Slab* s = slab().load(std::memory_order_acquire);
      if (s != nullptr) {
        const std::size_t off =
            s->used.fetch_add(kBatch, std::memory_order_relaxed);
        if (off + kStride <= s->payload) {
          // The slab's last batch may be short: keep whole strides only.
          const std::size_t n = std::min(kBatch, s->payload - off) / kStride;
          m.carve_next = s->data + off;
          m.carve_end = m.carve_next + n * kStride;
          return;
        }
        // Slab exhausted (overshoot of `used` is harmless); install a new
        // one. Losers of the install race re-loop into the winner's slab.
      }
      grow(s);
    }
  }

  static void grow(Slab* expected) {
    const std::size_t payload = kSlabBytes - sizeof(Slab);
    auto* s = static_cast<Slab*>(
        ::operator new(kSlabBytes, std::align_val_t{kCacheLine}));
    s->used.store(0, std::memory_order_relaxed);
    s->payload = payload;
    if (!slab().compare_exchange_strong(expected, s,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
      // Lost the install race; the winner's slab serves everyone.
      ::operator delete(s, std::align_val_t{kCacheLine});
      return;
    }
    MemStats::add_reserved(Traits::kClass, kSlabBytes);
    // Thread onto the immortal slab chain (registry for reachability).
    Slab* head = slabs_all().load(std::memory_order_relaxed);
    do {
      s->next = head;
    } while (!slabs_all().compare_exchange_weak(head, s,
                                                std::memory_order_release,
                                                std::memory_order_relaxed));
  }

  static void push_free(Node* n) {
    Magazine& m = magazine();
    Traits::set_free_link(n, m.top);
    m.top = n;
    if (++m.count == kSpill + 1) {
      m.spill_tail = n;
    } else if (m.count == 2 * kSpill) {
      spill(m);
    }
  }

  /// Moves the magazine's top kSpill nodes onto the shared list in one
  /// chain CAS. A push needs no guard: a Treiber push is ABA-safe.
  static void spill(Magazine& m) {
    Node* first = m.top;
    Node* last = m.spill_tail;
    m.top = Traits::free_link(last);
    m.count -= kSpill;
    Node* head = free_head().load(std::memory_order_relaxed);
    do {
      Traits::set_free_link(last, head);
    } while (!free_head().compare_exchange_weak(head, first,
                                                std::memory_order_release,
                                                std::memory_order_relaxed));
  }

  // Statics live behind functions so each is cache-line padded without
  // tripping over in-class NSDMI ordering; one instance per Traits.
  static std::atomic<Node*>& free_head() noexcept {
    struct P {
      alignas(kCacheLine) std::atomic<Node*> v{nullptr};
    };
    static P p;
    return p.v;
  }
  static std::array<Padded<Magazine>, kMaxThreads>& magazines() noexcept {
    static std::array<Padded<Magazine>, kMaxThreads> mags{};
    return mags;
  }
  static Magazine& magazine() noexcept {
    return magazines()[ThreadRegistry::id()].value;
  }
  static std::atomic<Slab*>& slab() noexcept {
    struct P {
      alignas(kCacheLine) std::atomic<Slab*> v{nullptr};
    };
    static P p;
    return p.v;
  }
  static std::atomic<Slab*>& slabs_all() noexcept {
    static std::atomic<Slab*> v{nullptr};
    return v;
  }
};

}  // namespace lfbt::reclaim
