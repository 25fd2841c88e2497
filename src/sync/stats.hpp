// Cheap per-thread operation-step counters.
//
// Used to check the paper's amortized step-complexity claims (stackbench's
// core.* metrics, the FusedQuery step-count tests): we count shared-memory reads, CAS attempts, successful CASes and
// min-writes performed inside trie operations, plus the query-path
// accounting (fused-helper invocations, query-node allocations and
// notify pushes).
// Counting is per-thread: each thread owns one slot of relaxed atomic
// counters that only it writes, by a relaxed load and store (plain moves
// on x86 — no lock-prefixed read-modify-write on the hot path), and
// aggregate() sums the slots on demand. A reader racing the owner sees a
// slightly stale tally, never a torn one, and the race is well defined.
// Memory accounting lives in reclaim/mem_stats.hpp and is re-exported
// here through Stats::memory() so harnesses have a single stats entry
// point.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "reclaim/mem_stats.hpp"
#include "sync/cacheline.hpp"
#include "sync/thread_registry.hpp"

namespace lfbt {

struct StepCounts {
  uint64_t reads = 0;
  uint64_t cas_attempts = 0;
  uint64_t cas_successes = 0;
  uint64_t min_writes = 0;
  uint64_t helps = 0;        // HelpActivate invocations that did work
  uint64_t trie_restarts = 0;
  // Ordered-traversal workload counters (harness-level, not memory
  // steps): range scans executed and keys they returned, so keys/scan
  // comes from the same StepCounts delta as every other counter.
  uint64_t scan_ops = 0;
  uint64_t scan_keys = 0;
  // Validated-scan accounting (stackbench's query.scan_* metrics and the
  // atomic-scan torture tests): scans whose kept walk validated as
  // atomic, walks discarded because an update epoch moved mid-walk, and
  // scans that exhausted their retry budget and kept a per-step walk
  // (atomic == false).
  uint64_t atomic_scans = 0;
  uint64_t scan_retries = 0;
  uint64_t scan_fallbacks = 0;
  // Query-path accounting (the fused-delete acceptance test):
  // every query-helper invocation, the subset announced as fused
  // direction-pairs (QueryDir::kBoth), and PredecessorNode allocations
  // that missed the recycling pool (helpers minus allocs = reuses).
  uint64_t query_helpers = 0;
  uint64_t fused_queries = 0;
  uint64_t query_node_allocs = 0;
  // Notify traffic: notify nodes an update pushed onto announced queries'
  // notify lists (paper l.146–161), one per successful push.
  uint64_t notify_pushes = 0;
  // Service-facade accounting (serve/batch.hpp; stackbench's serve.*
  // metrics): drains executed, ops drained through them, and ops the
  // coalescing pass retired without touching the structure (same-key
  // updates superseded within a query-free segment). coalesced/ops is the
  // announcement-traffic saving the batched front door buys.
  uint64_t batch_flushes = 0;
  uint64_t batch_ops = 0;
  uint64_t batch_coalesced = 0;

  /// The field list, declared once: it drives the arithmetic below and
  /// Stats' per-thread slots, reset() and aggregate().
  static constexpr uint64_t StepCounts::*kFields[] = {
      &StepCounts::reads,          &StepCounts::cas_attempts,
      &StepCounts::cas_successes,  &StepCounts::min_writes,
      &StepCounts::helps,          &StepCounts::trie_restarts,
      &StepCounts::scan_ops,       &StepCounts::scan_keys,
      &StepCounts::atomic_scans,   &StepCounts::scan_retries,
      &StepCounts::scan_fallbacks, &StepCounts::query_helpers,
      &StepCounts::fused_queries,  &StepCounts::query_node_allocs,
      &StepCounts::notify_pushes,  &StepCounts::batch_flushes,
      &StepCounts::batch_ops,      &StepCounts::batch_coalesced};

  StepCounts& operator+=(const StepCounts& o) noexcept {
    for (auto f : kFields) this->*f += o.*f;
    return *this;
  }
  StepCounts operator-(const StepCounts& o) const noexcept {
    StepCounts r = *this;
    for (auto f : kFields) r.*f -= o.*f;
    return r;
  }
  uint64_t total() const noexcept {
    return reads + cas_attempts + min_writes;
  }
};

class Stats {
 public:
  /// Always true: the counters are part of every build. Kept for
  /// harnesses that record it next to their results.
  static constexpr bool enabled() { return true; }

  /// Process-wide memory-class counters (pool bytes, recycle hit
  /// rates).
  static MemStats::Snapshot memory() { return MemStats::snapshot_all(); }

  /// The calling thread's counters.
  static StepCounts local() { return read(slot()); }

  static void count_read(uint64_t n = 1) {
    bump(slot(), &StepCounts::reads, n);
  }
  static void count_cas(bool success) {
    StepCounts& s = slot();
    bump(s, &StepCounts::cas_attempts);
    if (success) bump(s, &StepCounts::cas_successes);
  }
  static void count_min_write() { bump(slot(), &StepCounts::min_writes); }
  static void count_help() { bump(slot(), &StepCounts::helps); }
  static void count_scan(uint64_t keys) {
    StepCounts& s = slot();
    bump(s, &StepCounts::scan_ops);
    bump(s, &StepCounts::scan_keys, keys);
  }
  static void count_scan_atomic() { bump(slot(), &StepCounts::atomic_scans); }
  static void count_scan_retry() { bump(slot(), &StepCounts::scan_retries); }
  static void count_scan_fallback() {
    bump(slot(), &StepCounts::scan_fallbacks);
  }
  static void count_query_helper(bool fused) {
    StepCounts& s = slot();
    bump(s, &StepCounts::query_helpers);
    if (fused) bump(s, &StepCounts::fused_queries);
  }
  static void count_query_node_alloc() {
    bump(slot(), &StepCounts::query_node_allocs);
  }
  static void count_notify_push() { bump(slot(), &StepCounts::notify_pushes); }
  static void count_batch_flush(uint64_t ops, uint64_t coalesced) {
    StepCounts& s = slot();
    bump(s, &StepCounts::batch_flushes);
    bump(s, &StepCounts::batch_ops, ops);
    bump(s, &StepCounts::batch_coalesced, coalesced);
  }

  /// Sum over all thread slots. Safe to call while threads run (values are
  /// monotone; the result is a consistent-enough snapshot for reporting).
  static StepCounts aggregate() {
    StepCounts total;
    for (auto& s : slots_) total += read(s.value);
    return total;
  }

  /// Zero all slots. Only call while no instrumented code runs.
  static void reset() {
    for (auto& s : slots_) {
      for (auto f : StepCounts::kFields) {
        counter(s.value, f).store(0, kRelaxed);
      }
    }
  }

 private:
  static constexpr auto kRelaxed = std::memory_order_relaxed;
  using Field = uint64_t StepCounts::*;

  // Slots are plain StepCounts accessed only through atomic_ref, so the
  // one field table serves both the snapshot type and the slots.
  static std::atomic_ref<uint64_t> counter(StepCounts& s, Field f) {
    return std::atomic_ref<uint64_t>(s.*f);
  }
  static StepCounts& slot() { return slots_[ThreadRegistry::id()].value; }
  static StepCounts read(StepCounts& s) {
    StepCounts r;
    for (auto f : StepCounts::kFields) r.*f = counter(s, f).load(kRelaxed);
    return r;
  }
  /// Single-writer increment: only the owning thread stores to its slot.
  static void bump(StepCounts& s, Field f, uint64_t n = 1) {
    std::atomic_ref<uint64_t> c = counter(s, f);
    c.store(c.load(kRelaxed) + n, kRelaxed);
  }

  static inline std::array<Padded<StepCounts>, kMaxThreads> slots_{};
};

}  // namespace lfbt
