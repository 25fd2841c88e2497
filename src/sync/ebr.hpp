// Epoch-based memory reclamation (EBR).
//
// Classic three-epoch scheme (Fraser): threads enter a read-side critical
// section by publishing the global epoch; retired nodes are stamped with
// the epoch at retirement and freed once every in-critical-section thread
// has observed a later epoch (two epoch advances = grace period).
//
// Used by the compressed trie to run with bounded memory, and by the
// tries' recycling pools: query, notify and INS/DEL update nodes
// (lists/pall.hpp, core/trie_pools.hpp; the latest dummies and the
// relaxed trie's nodes included) rejoin their free lists only after a
// grace period, announcement cells (lists/announce_list.hpp) after two
// chained ones, and every trie operation holds a Guard. Update nodes
// additionally carry pins for the references the paper's algorithm keeps
// past a guard (dNodePtr, notify chains, INS targets).
//
// Layout note (E16 false-sharing audit, recorded in docs/EXPERIMENTS.md):
// per-thread announce words are a PaddedAtomic array separate from the
// owner-only limbo state — see the comment on g_announce in ebr.cpp for
// the measured delta and the structural argument.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "sync/cacheline.hpp"
#include "sync/thread_registry.hpp"

namespace lfbt::ebr {

/// RAII read-side critical section. Nested guards are supported.
class Guard {
 public:
  Guard();
  ~Guard();
  Guard(const Guard&) = delete;
  Guard& operator=(const Guard&) = delete;
};

/// Defers `deleter(ptr)` until no guard that predates this call is live.
void retire(void* ptr, void (*deleter)(void*));

template <class T>
void retire(T* ptr) {
  retire(ptr, [](void* p) { delete static_cast<T*>(p); });
}

/// Best-effort: advance epochs and free what is safe. Called automatically
/// every few retirements; exposed for tests and shutdown.
void collect();

/// Frees everything unconditionally. Only call when no concurrent guards
/// exist (e.g. test teardown after joining all threads).
void drain_unsafe();

/// Number of nodes currently awaiting reclamation: the per-slot counts
/// of retirements minus deleters run, summed. Exact while no thread
/// retires or frees; approximate while they do.
std::size_t pending();

}  // namespace lfbt::ebr
