// Process-wide chunk store: arena chunks are drawn from — and retired
// back to — one EBR-fed free list, so structure churn
// (create / fill / destroy) reaches a steady-state footprint instead of
// growing the heap by a fresh arena per structure lifetime. (Pool slabs
// do not come from here: RecyclePool::grow in reclaim/node_pool.hpp
// takes them from operator new, and they are immortal.)
//
// Design notes:
//  * Chunks are size-bucketed by power of two and payload sizes are
//    rounded up to a power of two at first allocation. A popped chunk
//    therefore always fits the request, which keeps the free lists pure
//    Treiber stacks: no pop-inspect-repush cycle whose immediate repush
//    would reintroduce the ABA window.
//  * Pops run under an ebr::Guard taken *inside* acquire(): every re-push
//    travels through ebr::retire (a full grace period), so a chunk popped
//    concurrently with our pop cannot reappear at the head while our
//    compare-exchange is in flight. This makes acquire() safe even from
//    call sites that hold no guard of their own (baseline structures,
//    tests, arena warm-up paths).
//  * Chunks are immortal: once allocated they live on a free list or in an
//    arena until process exit, always reachable (arena chunk list or the
//    static bucket heads), so LSan stays clean and stale EBR-protected
//    readers of retired *nodes* always touch mapped memory.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <new>

#include "reclaim/mem_stats.hpp"
#include "sync/cacheline.hpp"
#include "sync/ebr.hpp"

namespace lfbt::reclaim {

class ChunkStore {
 public:
  struct Chunk {
    // Atomic because a losing pop() may still read it while the winner
    // rewrites it (NodeArena::new_chunk links the chunk into its arena).
    std::atomic<Chunk*> next;
    std::size_t payload;  // usable bytes in data[]; always a power of two
    alignas(std::max_align_t) char data[1];  // flexible tail
  };

  /// Returns a chunk with payload >= min_payload, recycling a retired one
  /// when the right size bucket has stock. Lock-free; safe without an
  /// enclosing ebr::Guard.
  static Chunk* acquire(std::size_t min_payload) {
    if (min_payload == 0) min_payload = 1;
    const int fit = fit_bucket(min_payload);
    {
      ebr::Guard g;
      // A chunk in bucket b has payload in [2^b, 2^(b+1)), so anything in
      // bucket `fit` or the next one up satisfies the request; looking two
      // buckets up trades a little internal fragmentation for reuse.
      for (int b = fit; b < kBuckets && b <= fit + 2; ++b) {
        if (Chunk* c = pop(head_of(b))) {
          MemStats::on_acquire(MemClass::kArenaChunk, /*recycled=*/true);
          return c;
        }
      }
    }
    const std::size_t payload = std::size_t{1} << fit;
    const std::size_t total = sizeof(Chunk) + payload;
    auto* c =
        ::new (::operator new(total, std::align_val_t{kCacheLine})) Chunk;
    c->next.store(nullptr, std::memory_order_relaxed);
    c->payload = payload;
    MemStats::add_reserved(MemClass::kArenaChunk, total);
    MemStats::on_acquire(MemClass::kArenaChunk, /*recycled=*/false);
    return c;
  }

  /// Retires `c` back to its size bucket after a grace period. The grace
  /// period is what makes concurrent acquire() pops ABA-free, and it also
  /// covers any straggling EBR-protected reader still dereferencing nodes
  /// that lived in this chunk.
  static void release(Chunk* c) {
    MemStats::on_release(MemClass::kArenaChunk);
    ebr::retire(c, [](void* p) { push(static_cast<Chunk*>(p)); });
  }

 private:
  // Bucket b holds payloads in [2^b, 2^(b+1)); 48 buckets cover any
  // realistic allocation (256 TiB).
  static constexpr int kBuckets = 48;

  /// Smallest bucket whose every member fits a request of `min` bytes.
  static int fit_bucket(std::size_t min) noexcept {
    return static_cast<int>(std::bit_width(min - 1));
  }

  static Chunk* pop(std::atomic<Chunk*>& head) noexcept {
    Chunk* c = head.load(std::memory_order_acquire);
    // The guard keeps the pop ABA-free: a chunk popped by another thread
    // re-enters the list only through ebr::retire, i.e. after every guard
    // alive at its pop has been dropped. It does NOT keep c->next stable:
    // the winning popper may already be relinking c into its arena, so
    // the value read here can be stale — harmless, because head has then
    // moved and the compare-exchange fails.
    while (c != nullptr &&
           !head.compare_exchange_weak(
               c, c->next.load(std::memory_order_relaxed),
               std::memory_order_acq_rel, std::memory_order_acquire)) {
    }
    return c;
  }

  static void push(Chunk* c) noexcept {
    auto& head = head_of(fit_bucket(c->payload));
    Chunk* h = head.load(std::memory_order_relaxed);
    do {
      c->next.store(h, std::memory_order_relaxed);
    } while (!head.compare_exchange_weak(h, c, std::memory_order_release,
                                         std::memory_order_relaxed));
  }

  // One padded head per size bucket (function-local so the nested type is
  // complete before the array is instantiated; still one instance
  // process-wide thanks to static-member-function linkage).
  static std::atomic<Chunk*>& head_of(int b) noexcept {
    struct PaddedHead {
      alignas(kCacheLine) std::atomic<Chunk*> v{nullptr};
    };
    static PaddedHead heads[kBuckets];
    return heads[b].v;
  }
};

}  // namespace lfbt::reclaim
