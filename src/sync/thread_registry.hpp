// Process-wide registry handing out small dense thread ids.
//
// Lock-free structures need a bounded per-thread slot (EBR epochs,
// stats, pool magazines and carve batches). Slots are recycled when threads exit,
// so long test runs that spawn thousands of short-lived threads stay
// within kMaxThreads concurrently-live slots; per-slot state (EBR limbo,
// magazines, counters) passes to the next thread that claims the slot.
//
// Layout note (E16 false-sharing audit, recorded in docs/EXPERIMENTS.md):
// the claim words are PaddedAtomic<bool>, one cache line each — a slot
// claim/release CAS by a starting/exiting thread must not invalidate the
// line under a neighbouring slot's CAS. Registration is cold (once per
// thread lifetime), so this is cheap insurance rather than a measured
// win; the hot per-thread words that DID measure — the EBR announce
// epochs that adjoined the owner-mutated limbo vectors — are padded in
// sync/ebr.cpp (see g_announce there for the audit's numbers).
#pragma once

#include <atomic>
#include <cstdint>

namespace lfbt {

inline constexpr int kMaxThreads = 256;

class ThreadRegistry {
 public:
  /// Dense id of the calling thread in [0, kMaxThreads). Registers lazily.
  static int id();

  /// Number of slots ever claimed simultaneously (upper bound on live ids).
  static int high_water();

 private:
  friend struct ThreadSlotReleaser;
  static void release(int id);
};

}  // namespace lfbt
