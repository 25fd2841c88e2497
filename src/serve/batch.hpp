// Request-batching front door (src/serve/): per-thread op buffers that
// drain into any OrderedSet in one EBR guard section, returning results
// through tickets — an async API over the core structures that never
// touches their proofs.
//
// Why batch a lock-free structure at all? PR 4's fused-query work showed
// the update path is dominated by shared announcement-list traffic (one
// U-ALL/RU-ALL splice-and-retract per update, plus each erase's
// embedded fused query on the P-ALL). A buffered front door amortises
// that traffic two ways:
//   * one ebr::Guard brackets the whole drain, so the per-op guard
//     enter/exit inside every structure call collapses to a nesting-
//     counter increment (sync/ebr.cpp) and the drain loop runs the
//     structure back-to-back with hot caches;
//   * a coalescing pass retires superseded same-key updates before they
//     reach the structure: within a query-free run of buffered updates,
//     only the LAST update per key can affect any observable state, so
//     the earlier ones complete without paying their announcement-list
//     splices at all. Under skewed (Zipf/hot-range) write traffic this
//     removes a large fraction of the shared-list work — stackbench's
//     ingest-hot workload and its `batch` ladder rung measure it.
//
// Linearization contract ("batched linearization", docs/DESIGN.md):
// every buffered op linearizes at its DRAIN POINT inside flush(), in
// drain order; its result is exact at that point. A ticket therefore
// promises: (a) the op has NOT taken effect until a flush covers it —
// tickets of a stalled drainer stay not-ready and the structure is
// untouched; (b) once ready, the result equals a sequential execution of
// the batch's surviving ops in submission order. Coalesced updates
// linearize bunched immediately before the same-key survivor — legal
// because every op in a batch is still pending (its caller is inside
// submit()/flush()) for the whole drain, so the linearization points of
// the bunch can be placed back-to-back with nothing observable between
// them (full argument in docs/DESIGN.md).
//
// Threading model: a BatchBuffer has ONE owner thread, which submits and
// drains (per-thread buffers, as the serve layer's name says). The only
// cross-thread-safe probes are OpTicket readiness checks (the drain
// watermark is an acquire/release atomic); reading a *result* from a
// foreign thread additionally needs a caller-provided happens-before
// edge after the flush (e.g. a join), like any published value.
//
// Memory: all storage — the slot ring and the coalescing key table — is
// reserved once at construction and accounted under MemClass::kBatchSlot;
// a drain never allocates (the buffer-reuse test pins this down).
// A result lives in its ring slot until `capacity` further ops are
// submitted; result() asserts on an expired ticket.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <vector>

#include "shard/ordered_set.hpp"
#include "sync/ebr.hpp"
#include "sync/stats.hpp"
#include "workload/workload.hpp"

namespace lfbt::serve {

inline constexpr std::size_t kDefaultBatch = 256;

/// Handle for one buffered op: its position in the buffer's submission
/// sequence. Resolve through the owning buffer.
struct OpTicket {
  uint64_t seq = 0;
};

template <OrderedSet Set>
class BatchBuffer {
 public:
  explicit BatchBuffer(Set& set, std::size_t capacity = kDefaultBatch)
      : set_(&set), capacity_(capacity < 1 ? 1 : capacity) {
    slots_.resize(capacity_);
    std::size_t table = 1;
    while (table < 2 * capacity_) table <<= 1;
    table_mask_ = table - 1;
    table_.resize(table);
    const std::size_t bytes =
        slots_.capacity() * sizeof(Slot) + table_.capacity() * sizeof(KeyEntry);
    MemStats::add_reserved(MemClass::kBatchSlot, bytes);
    MemStats::on_acquire(MemClass::kBatchSlot, false);
  }
  ~BatchBuffer() { MemStats::on_release(MemClass::kBatchSlot); }
  BatchBuffer(const BatchBuffer&) = delete;
  BatchBuffer& operator=(const BatchBuffer&) = delete;

  /// Buffer one op (point ops only — range scans return key vectors and
  /// go through the structure directly). Auto-drains when the buffer
  /// reaches capacity, so a submit may complete earlier tickets.
  OpTicket submit(const Op& op) {
    assert(op.kind != OpKind::kRangeScan &&
           "scans are not batchable (vector results); call the set");
    Slot& s = slots_[static_cast<std::size_t>(next_ % capacity_)];
    s.op = op;
    s.seq = next_;
    s.skip = false;
    s.result = 0;
    ++next_;
    if (pending() == capacity_) flush();
    return OpTicket{next_ - 1};
  }

  // Typed async surface: the front door callers actually use.
  OpTicket insert(Key k) { return submit({OpKind::kInsert, k, 0, 0}); }
  OpTicket erase(Key k) { return submit({OpKind::kErase, k, 0, 0}); }
  OpTicket contains(Key k) { return submit({OpKind::kContains, k, 0, 0}); }
  OpTicket predecessor(Key y) { return submit({OpKind::kPredecessor, y, 0, 0}); }
  OpTicket successor(Key y) { return submit({OpKind::kSuccessor, y, 0, 0}); }

  /// Drain every pending op into the structure, in submission order,
  /// under one EBR guard. This is the batch's linearization window: op i
  /// linearizes when the drain loop applies it (or, coalesced, bunched
  /// before its same-key survivor). No-op on an empty buffer.
  void flush() {
    const uint64_t lo = drained_.load(std::memory_order_relaxed);
    const uint64_t hi = next_;
    if (lo == hi) return;

    // Coalescing pass (backward): within each query-free segment, only
    // the last update per key survives; earlier ones are superseded —
    // the set's state after a query-free update run depends only on the
    // last update per key, and distinct keys commute. A query bounds the
    // segment because it may observe the intermediate state.
    ++stamp_;
    uint64_t coalesced = 0;
    for (uint64_t seq = hi; seq-- > lo;) {
      Slot& s = slots_[static_cast<std::size_t>(seq % capacity_)];
      const OpKind k = s.op.kind;
      if (k == OpKind::kInsert || k == OpKind::kErase) {
        if (key_seen_or_mark(s.op.key)) {
          s.skip = true;
          ++coalesced;
        }
      } else {
        ++stamp_;  // segment boundary: nothing supersedes across a query
      }
    }

    {
      ebr::Guard guard;  // one guard section for the whole drain
      for (uint64_t seq = lo; seq != hi; ++seq) {
        Slot& s = slots_[static_cast<std::size_t>(seq % capacity_)];
        if (!s.skip) s.result = apply_one(s.op);
      }
    }
    drained_.store(hi, std::memory_order_release);
    Stats::count_batch_flush(hi - lo, coalesced);
  }

  /// Ops buffered but not yet drained (owner-thread view).
  std::size_t pending() const {
    return static_cast<std::size_t>(next_ -
                                    drained_.load(std::memory_order_relaxed));
  }

  /// True once a flush covered the ticket. Safe from any thread.
  bool ready(OpTicket t) const {
    return drained_.load(std::memory_order_acquire) > t.seq;
  }

  /// Exact result at the op's drain point: contains -> 0/1,
  /// predecessor/successor -> the answer key (kNoKey for none),
  /// insert/erase -> 0. Asserts the ticket is ready and not expired
  /// (fewer than `capacity` ops submitted since).
  int64_t result(OpTicket t) const {
    assert(ready(t) && "result() before the covering flush");
    const Slot& s = slots_[static_cast<std::size_t>(t.seq % capacity_)];
    assert(s.seq == t.seq && "ticket expired: slot reused by a later op");
    return s.result;
  }

  std::size_t capacity() const { return capacity_; }

 private:
  struct Slot {
    Op op{OpKind::kContains, 0, 0, 0};
    int64_t result = 0;
    uint64_t seq = 0;
    bool skip = false;
  };
  /// Stamp-versioned open-addressing entry: valid iff stamp == stamp_,
  /// so segment boundaries and new flushes invalidate in O(1) with no
  /// clearing pass. Entries of the current stamp are contiguous from
  /// each key's home slot (insertion claims the first stale slot on the
  /// probe path), so lookups terminate at the first stale slot.
  struct KeyEntry {
    Key key = 0;
    uint64_t stamp = 0;
  };

  static std::size_t hash_key(Key k) {
    uint64_t x = static_cast<uint64_t>(k) * 0x9e3779b97f4a7c15ull;
    x ^= x >> 29;
    return static_cast<std::size_t>(x);
  }

  /// True iff `k` was already recorded under the current stamp;
  /// otherwise records it. Load factor stays <= 1/2 (table >= 2*batch).
  bool key_seen_or_mark(Key k) {
    std::size_t i = hash_key(k) & table_mask_;
    for (;;) {
      KeyEntry& e = table_[i];
      if (e.stamp != stamp_) {
        e.key = k;
        e.stamp = stamp_;
        return false;
      }
      if (e.key == k) return true;
      i = (i + 1) & table_mask_;
    }
  }

  int64_t apply_one(const Op& op) {
    switch (op.kind) {
      case OpKind::kInsert:
        set_->insert(op.key);
        return 0;
      case OpKind::kErase:
        set_->erase(op.key);
        return 0;
      case OpKind::kContains:
        return set_->contains(op.key) ? 1 : 0;
      case OpKind::kPredecessor:
        return set_->predecessor(op.key);
      case OpKind::kSuccessor:
        return set_->successor(op.key);
      case OpKind::kRangeScan:
        break;  // rejected at submit
    }
    assert(false);
    return 0;
  }

  Set* set_;
  std::size_t capacity_;
  std::vector<Slot> slots_;
  std::vector<KeyEntry> table_;
  std::size_t table_mask_ = 0;
  uint64_t stamp_ = 0;
  uint64_t next_ = 0;  // owner-only submission sequence
  /// Drain watermark: every seq below it has its result published. The
  /// release store in flush() pairs with ready()'s acquire load.
  std::atomic<uint64_t> drained_{0};
};

}  // namespace lfbt::serve
