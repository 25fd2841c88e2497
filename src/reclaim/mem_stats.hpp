// Process-wide memory accounting for the reclamation subsystem.
//
// Every pooled allocation class (query nodes, notify nodes, update nodes,
// announcement cells, arena chunks) reports three monotone event counters
// plus a byte gauge through this surface:
//
//   bytes_reserved  -- slab/chunk bytes drawn from the OS for this class.
//                      Monotone: recycling means this stops growing, it
//                      never shrinks (slabs are immortal so that stale
//                      EBR-protected readers always dereference mapped
//                      memory, and LSan sees every node as reachable).
//   acquired/released -- objects handed out / returned. The difference,
//                      in_use(), is the live-object gauge.
//   recycled        -- acquisitions served from a free list instead of
//                      fresh slab space. recycled/acquired close to 1 is
//                      the steady-state signature the soak harness checks.
//
// Counters are process-wide (pools are process-wide), always-on (the soak
// smoke test in CI runs against release builds), relaxed, and padded so
// the write-heavy classes do not false-share.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "sync/cacheline.hpp"

namespace lfbt {

enum class MemClass : int {
  kQueryNode = 0,
  kNotifyNode = 1,
  kUpdateNode = 2,
  kAnnCell = 3,
  kArenaChunk = 4,
  // Service-facade batch buffers (serve/batch.hpp): slot rings + the
  // coalescing key table, reserved once per BatchBuffer at construction.
  // BatchBuffer.ReuseKeepsMemoryFlat (tests/test_serve.cpp) asserts this
  // gauge is FLAT across flushes — a drain must never allocate.
  kBatchSlot = 5,
};

inline constexpr int kNumMemClasses = 6;

inline constexpr const char* kMemClassNames[kNumMemClasses] = {
    "query_node", "notify_node", "update_node",
    "ann_cell",   "arena_chunk", "batch_slot"};

class MemStats {
 public:
  struct ClassSnapshot {
    std::uint64_t bytes_reserved = 0;
    std::uint64_t acquired = 0;
    std::uint64_t released = 0;
    std::uint64_t recycled = 0;

    std::uint64_t in_use() const noexcept {
      return acquired >= released ? acquired - released : 0;
    }
  };

  struct Snapshot {
    ClassSnapshot cls[kNumMemClasses];

    std::uint64_t total_reserved() const noexcept {
      std::uint64_t t = 0;
      for (const auto& c : cls) t += c.bytes_reserved;
      return t;
    }
  };

  static void add_reserved(MemClass c, std::size_t bytes) noexcept {
    cell(c).bytes_reserved.fetch_add(bytes, std::memory_order_relaxed);
  }

  /// One object handed out; `recycled` when it came from a free list.
  static void on_acquire(MemClass c, bool recycled) noexcept {
    Cell& k = cell(c);
    k.acquired.fetch_add(1, std::memory_order_relaxed);
    if (recycled) k.recycled.fetch_add(1, std::memory_order_relaxed);
  }

  /// One object returned (counted when the release is *requested*, i.e. at
  /// ebr::retire time, not when the grace period expires).
  static void on_release(MemClass c) noexcept {
    cell(c).released.fetch_add(1, std::memory_order_relaxed);
  }

  static ClassSnapshot snapshot(MemClass c) noexcept {
    const Cell& k = cell(c);
    ClassSnapshot s;
    s.bytes_reserved = k.bytes_reserved.load(std::memory_order_relaxed);
    s.acquired = k.acquired.load(std::memory_order_relaxed);
    s.released = k.released.load(std::memory_order_relaxed);
    s.recycled = k.recycled.load(std::memory_order_relaxed);
    return s;
  }

  static Snapshot snapshot_all() noexcept {
    Snapshot s;
    for (int i = 0; i < kNumMemClasses; ++i) {
      s.cls[i] = snapshot(static_cast<MemClass>(i));
    }
    return s;
  }

  /// Pool + chunk bytes ever reserved, process-wide. Flat across soak
  /// windows == the structure reached its steady-state footprint.
  static std::size_t total_reserved() noexcept {
    return snapshot_all().total_reserved();
  }

 private:
  struct alignas(kCacheLine) Cell {
    std::atomic<std::uint64_t> bytes_reserved{0};
    std::atomic<std::uint64_t> acquired{0};
    std::atomic<std::uint64_t> released{0};
    std::atomic<std::uint64_t> recycled{0};
  };

  static Cell& cell(MemClass c) noexcept {
    static Cell cells[kNumMemClasses];
    return cells[static_cast<int>(c)];
  }
};

}  // namespace lfbt
