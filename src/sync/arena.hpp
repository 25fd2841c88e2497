// Per-structure node arena — the repository's substitute for the garbage
// collector the paper assumes (see README.md, memory-reclamation note).
//
// Properties relied on by the trie:
//  * Nodes are never recycled while the owning structure lives, so every
//    pointer comparison (FirstActivated, dNodePtr CAS expected values)
//    on them is ABA-free, exactly as under GC.
//  * Allocation is wait-free per thread: each thread bump-allocates from
//    its own chunk; a new chunk is pushed onto a global lock-free chunk
//    list only when the current one fills.
//  * Destruction retires every chunk back to the process-wide ChunkStore
//    (reclaim/chunk_retire.hpp) after an EBR grace period, so structure
//    churn reuses chunk memory instead of growing the heap.
//
// The arena is intentionally type-erased (raw bytes). It now serves only
// the bounded populations: the latest-slot dummy DEL nodes that TrieCore
// materialises for inserts (at most one per key; reads allocate none)
// and the update nodes of the relaxed trie. The lock-free trie's
// churn-allocated nodes — update, query and notify nodes and
// announcement cells — come from the recycling pools
// (core/trie_pools.hpp, lists/pall.hpp).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

#include "reclaim/chunk_retire.hpp"
#include "sync/cacheline.hpp"
#include "sync/thread_registry.hpp"

namespace lfbt {

class NodeArena {
 public:
  explicit NodeArena(std::size_t chunk_bytes = 1u << 20)
      : chunk_bytes_(chunk_bytes) {}

  NodeArena(const NodeArena&) = delete;
  NodeArena& operator=(const NodeArena&) = delete;

  ~NodeArena() { release_all(); }

  /// Allocates raw storage (no construction). Wait-free per thread.
  void* allocate(std::size_t bytes, std::size_t align = alignof(std::max_align_t)) {
    Slot& slot = slot_for_thread();
    if (slot.owner_id != id_) {
      // Slot collision: a different arena mapped here since this thread
      // last allocated from `this` (or it never did). Arena ids are never
      // reused, so a stale slot can never be mistaken for this arena even
      // if `this` reuses a freed address.
      slot.owner_id = id_;
      slot.chunk = nullptr;
      slot.pos = slot.end = 0;
    }
    // Align the absolute address (chunk payloads are only max_align_t
    // aligned relative to the chunk header).
    auto aligned_pos = [&](const Slot& s) {
      const auto base = reinterpret_cast<uintptr_t>(s.chunk->data);
      return ((base + s.pos + align - 1) & ~(align - 1)) - base;
    };
    std::size_t p = slot.chunk != nullptr ? aligned_pos(slot) : 0;
    if (slot.chunk == nullptr || p + bytes > slot.end) {
      new_chunk(slot, bytes + align);
      p = aligned_pos(slot);
    }
    void* out = slot.chunk->data + p;
    slot.pos = p + bytes;
    return out;
  }

  /// Allocate-and-construct helper.
  template <class T, class... Args>
  T* create(Args&&... args) {
    return ::new (allocate(sizeof(T), alignof(T))) T(static_cast<Args&&>(args)...);
  }

  /// Total bytes handed out to chunks (for the space accounting tests).
  std::size_t bytes_reserved() const noexcept {
    return bytes_reserved_.load(std::memory_order_relaxed);
  }

 private:
  using Chunk = reclaim::ChunkStore::Chunk;

  struct Slot {
    uint64_t owner_id = 0;  // 0 = unowned; arena ids start at 1
    Chunk* chunk = nullptr;
    std::size_t pos = 0;
    std::size_t end = 0;
  };

  static uint64_t next_id() {
    static std::atomic<uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
  }

  void new_chunk(Slot& slot, std::size_t min_bytes) {
    std::size_t payload = chunk_bytes_ > min_bytes ? chunk_bytes_ : min_bytes;
    // The store may hand back a (recycled) chunk bigger than requested;
    // account what we actually hold so memory_reserved() stays honest.
    Chunk* c = reclaim::ChunkStore::acquire(payload);
    bytes_reserved_.fetch_add(sizeof(Chunk) + c->payload,
                              std::memory_order_relaxed);
    // Push onto this arena's chunk list (lock-free stack).
    Chunk* head = chunks_.load(std::memory_order_relaxed);
    do {
      c->next.store(head, std::memory_order_relaxed);
    } while (!chunks_.compare_exchange_weak(head, c, std::memory_order_release,
                                            std::memory_order_relaxed));
    slot.chunk = c;
    slot.pos = 0;
    slot.end = c->payload;
  }

  void release_all() {
    Chunk* c = chunks_.exchange(nullptr, std::memory_order_acquire);
    while (c != nullptr) {
      Chunk* next = c->next.load(std::memory_order_relaxed);
      reclaim::ChunkStore::release(c);
      c = next;
    }
  }

  // Per-thread cursors live in static storage, direct-mapped by arena id:
  // each thread keeps kSlotsPerThread cursors, so interleaving allocations
  // across several arenas — e.g. the per-shard arenas of a ShardedTrie —
  // keeps one open chunk per arena instead of abandoning a fresh chunk on
  // every arena switch. Consecutively-created arenas (a sharded trie's
  // shards, all created by its constructor) map to distinct slots —
  // ShardedTrie::kMaxShards = 64 caps a trie at exactly this capacity,
  // one arena per shard. On a collision the evicted arena's open chunk is
  // abandoned: wasted until that arena dies, never leaked, and no worse
  // than the pre-cache behaviour. Slots are padded per *thread* (not
  // per slot); only this thread touches its group, so intra-group sharing
  // is harmless.
  static constexpr std::size_t kSlotsPerThread = 64;
  struct alignas(kCacheLine) ThreadSlots {
    std::array<Slot, kSlotsPerThread> s{};
  };
  Slot& slot_for_thread() const {
    static std::array<ThreadSlots, kMaxThreads> slots{};
    return slots[ThreadRegistry::id()].s[id_ % kSlotsPerThread];
  }

  const uint64_t id_ = next_id();
  std::size_t chunk_bytes_;
  std::atomic<Chunk*> chunks_{nullptr};
  std::atomic<std::size_t> bytes_reserved_{0};
};

}  // namespace lfbt
