// Single-writer atomic copy (paper reference [7], used for
// pNode.RuallPosition in Section 5 — here PredecessorNode::position,
// whose kPredSide word is the RU-ALL position and whose kSuccSide word
// is its mirror, the U-ALL position).
//
// Semantics required by the paper (Figure 8 discussion): the predecessor
// operation pOp must advance its announced RU-ALL position by *atomically*
// reading `src` (the next word of the list cell it is visiting) and
// writing the result into `dst` (pNode.RuallPosition). If the read and the
// write were separate steps, a Delete could be announced in between, read
// the stale position, and have its notification wrongly rejected while a
// smaller key's notification is accepted.
//
// Implementation (descriptor helping, O(1) for both sides):
//   * dst normally holds a plain word (low bit 0 clear; clients must keep
//     bit 0 free — the announcement lists use bit 1 for their marks).
//   * copy(src): the single writer installs a descriptor (bit 0 set,
//     payload = src) with a store, then resolves it: val = src->load();
//     CAS(dst, desc, val). The first successful resolution freezes val.
//   * read(): if a descriptor is observed, the reader helps the same way
//     and returns the resolved value.
//
// From installation until resolution every read of dst returns a fresh
// read of *src, so the copy behaves as if it happened atomically at the
// installation step — the property the Figure 8 argument needs: once the
// writer has moved on, no reader can still observe the old position.
#pragma once

#include <atomic>
#include <cstdint>

namespace lfbt {

class AtomicCopyWord {
 public:
  explicit AtomicCopyWord(uintptr_t initial = 0) : word_(initial) {}

  /// Writer only: atomically dst <- *src. `src` must outlive the call on
  /// all helping paths (a retired list cell is reused only two grace
  /// periods later, after every helper that could resolve it).
  void copy(const std::atomic<uintptr_t>* src) noexcept {
    const uintptr_t desc = reinterpret_cast<uintptr_t>(src) | kTag;
    word_.store(desc, std::memory_order_seq_cst);
    resolve(desc);
  }

  /// Writer only: plain store (initialisation / direct positioning).
  void store(uintptr_t value) noexcept {
    word_.store(value, std::memory_order_seq_cst);
  }

  /// Any thread: current value, helping an in-flight copy if needed.
  uintptr_t read() const noexcept {
    uintptr_t w = word_.load(std::memory_order_seq_cst);
    if (w & kTag) w = resolve(w);
    return w;
  }

 private:
  static constexpr uintptr_t kTag = 1;

  uintptr_t resolve(uintptr_t desc) const noexcept {
    auto* src = reinterpret_cast<const std::atomic<uintptr_t>*>(desc & ~kTag);
    uintptr_t val = src->load(std::memory_order_seq_cst);
    uintptr_t expected = desc;
    if (word_.compare_exchange_strong(expected, val, std::memory_order_seq_cst)) {
      return val;
    }
    // Lost the race. Only the single writer can have replaced `desc`, and
    // only after it was resolved — so `expected` is either a plain value
    // or a *newer* descriptor; one more help round settles it.
    if (expected & kTag) {
      auto* src2 = reinterpret_cast<const std::atomic<uintptr_t>*>(expected & ~kTag);
      return src2->load(std::memory_order_seq_cst);
    }
    return expected;
  }

  mutable std::atomic<uintptr_t> word_;
};

}  // namespace lfbt
