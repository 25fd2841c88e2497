// Versioned read-transactions: the immutable version-node substrate of
// the VersionedTrie baseline, factored out and pooled, plus SnapshotView
// — an O(1)-acquire frozen view answering contains / predecessor /
// successor / range_scan / rank / select against one state.
//
// The recipe is the Fatourou & Ruppert-style augmented versioning the
// baseline already implements: a path-copying persistent trie behind a
// CAS'd root, every node carrying a subtree key count. One root read
// pins a whole version; SnapshotView packages that read together with
// the ebr::Guard that keeps the version's nodes alive. Because replaced
// paths are RETIRED (not freed) on update, a view holding a guard can
// keep reading its version while the live structure moves on; when the
// view is released the guard drops and the retired paths drain to the
// version-node pool on EBR's schedule — which is what keeps the churn-
// soak flat-footprint gate true under snapshot churn
// (tests/test_reclaim.cpp).
//
// Version nodes are pooled through the reclamation subsystem
// (reclaim/node_pool.hpp, MemClass::kVersionNode): immortal slabs, so a
// stale view never dereferences unmapped memory even if misused past
// its trie's lifetime, and per-class MemStats counters so snapshot
// churn is observable (`workbench --mem-stats`, the soak harness).
//
// Threading contract of SnapshotView: acquisition is wait-free and safe
// from any thread, but a view is a SINGLE-THREAD object — the pinning
// guard is thread-affine, so the view must be queried and released
// (destroyed) on the thread that created it. Holding a view pins the
// global epoch: release views promptly, and never call a control-plane
// grace wait (ebr::synchronize — e.g. ShardedTrie::split/merge) from a
// thread holding one, or the wait deadlocks on its own pin.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/types.hpp"
#include "query/range_scan.hpp"
#include "reclaim/node_pool.hpp"
#include "sync/ebr.hpp"

namespace lfbt::vsn {

/// One immutable version node: subtree key count plus the two children.
/// `free_link` is RecyclePool linkage, dead weight while the node is
/// live (never read between acquire and release).
struct VNode {
  std::size_t sum = 0;
  const VNode* left = nullptr;
  const VNode* right = nullptr;
  std::atomic<VNode*> free_link{nullptr};
};

struct VNodeTraits {
  using Node = VNode;
  static constexpr MemClass kClass = MemClass::kVersionNode;
  static Node* free_link(Node* n) {
    return n->free_link.load(std::memory_order_acquire);
  }
  static void set_free_link(Node* n, Node* next) {
    n->free_link.store(next, std::memory_order_release);
  }
  static void construct(void* storage) { new (storage) Node; }
};
using VNodePool = reclaim::RecyclePool<VNodeTraits>;

/// Pool acquire + field reset (recycled nodes come back stale).
inline const VNode* make_vnode(std::size_t sum, const VNode* left,
                               const VNode* right) {
  VNode* n = VNodePool::acquire().node;
  n->sum = sum;
  n->left = left;
  n->right = right;
  return n;
}

/// Hand a detached version node to EBR; it rejoins the pool after the
/// grace period — i.e. after every guard pinning its version (including
/// any SnapshotView's) has dropped.
inline void retire_vnode(const VNode* n) {
  VNodePool::release(const_cast<VNode*>(n));
}

inline bool bit_at(Key x, uint32_t bit) noexcept {
  return (static_cast<uint64_t>(x) >> bit) & 1;
}

/// Number of keys < y in the version rooted at v (b = trie depth).
/// Caller pins the version (guard or view).
inline std::size_t rank_in(const VNode* v, Key y, uint32_t b) {
  // y at or beyond the padded key space: every key counts.
  if (static_cast<uint64_t>(y) >= (uint64_t{1} << b)) {
    return v == nullptr ? 0 : v->sum;
  }
  std::size_t r = 0;
  for (uint32_t lvl = b; v != nullptr && lvl > 0; --lvl) {
    if (bit_at(y, lvl - 1)) {
      if (v->left != nullptr) r += v->left->sum;
      v = v->right;
    } else {
      v = v->left;
    }
  }
  return r;
}

/// i-th smallest key of the version rooted at v, or kNoKey.
inline Key select_in(const VNode* v, std::size_t i, uint32_t b) {
  if (v == nullptr || i >= v->sum) return kNoKey;
  Key x = 0;
  for (uint32_t lvl = b; lvl > 0; --lvl) {
    const std::size_t left_sum = v->left != nullptr ? v->left->sum : 0;
    if (i < left_sum) {
      v = v->left;
    } else {
      i -= left_sum;
      v = v->right;
      x |= Key{1} << (lvl - 1);
    }
  }
  return x;
}

/// In-order walk of one version, pruned to the subtrees intersecting
/// [lo, hi]; stops once `limit` keys were collected.
inline void collect(const VNode* v, uint32_t lvl, Key prefix, Key lo, Key hi,
                    std::size_t limit, std::size_t& n, std::vector<Key>& out) {
  if (v == nullptr || n >= limit) return;
  if (lvl == 0) {
    if (prefix >= lo && prefix <= hi) {
      out.push_back(prefix);
      ++n;
    }
    return;
  }
  // Subtree at (lvl, prefix) spans [prefix, prefix + 2^lvl).
  const Key span_end = prefix + (Key{1} << lvl) - 1;
  if (span_end < lo || prefix > hi) return;
  collect(v->left, lvl - 1, prefix, lo, hi, limit, n, out);
  collect(v->right, lvl - 1, prefix | (Key{1} << (lvl - 1)), lo, hi, limit, n,
          out);
}

}  // namespace lfbt::vsn

namespace lfbt {

/// A frozen, movable read-transaction over a VersionedTrie (see the
/// header comment for the lifetime and threading contract). Every query
/// is wait-free against the pinned version; all of them trivially
/// linearize at the snapshot() root read, so composing any number of
/// reads from one view observes one state — the property validated
/// scans only achieve per window.
class SnapshotView {
 public:
  /// Built by VersionedTrie::snapshot(); `pin` must have been acquired
  /// BEFORE `root` was read (the guard is what keeps root's version out
  /// of the reclaimer's hands).
  SnapshotView(std::unique_ptr<ebr::Guard> pin, const vsn::VNode* root,
               Key universe, uint32_t bits)
      : pin_(std::move(pin)), root_(root), u_(universe), b_(bits) {}

  SnapshotView(SnapshotView&&) noexcept = default;
  SnapshotView& operator=(SnapshotView&&) noexcept = default;
  SnapshotView(const SnapshotView&) = delete;
  SnapshotView& operator=(const SnapshotView&) = delete;

  Key universe() const noexcept { return u_; }
  /// False after release(): the version may be reclaimed, queries are
  /// no longer legal (debug builds assert).
  bool valid() const noexcept { return pin_ != nullptr; }

  /// Drop the pin early (the destructor does the same): retired paths
  /// of this version become reclaimable once every other guard drains.
  void release() {
    pin_.reset();
    root_ = nullptr;
  }

  std::size_t size() const {
    assert(valid());
    return root_ == nullptr ? 0 : root_->sum;
  }
  bool empty() const { return size() == 0; }

  bool contains(Key x) const {
    assert(valid() && x >= 0 && x < u_);
    const vsn::VNode* v = root_;
    for (uint32_t lvl = b_; v != nullptr && lvl > 0; --lvl) {
      v = vsn::bit_at(x, lvl - 1) ? v->right : v->left;
    }
    return v != nullptr;
  }

  /// Number of keys strictly less than y.
  std::size_t rank(Key y) const {
    assert(valid() && y >= 0 && y <= u_);
    return vsn::rank_in(root_, y, b_);
  }

  /// i-th smallest key (0-based), or kNoKey if i >= size().
  Key select(std::size_t i) const {
    assert(valid());
    return vsn::select_in(root_, i, b_);
  }

  Key predecessor(Key y) const {
    assert(valid() && y >= 0 && y <= u_);
    const std::size_t r = vsn::rank_in(root_, y, b_);
    return r == 0 ? kNoKey : vsn::select_in(root_, r - 1, b_);
  }

  Key successor(Key y) const {
    assert(valid() && y >= -1 && y < u_);
    const std::size_t r = y < 0 ? 0 : vsn::rank_in(root_, y + 1, b_);
    return vsn::select_in(root_, r, b_);
  }

  /// Ascending keys of the frozen S ∩ [lo, hi], at most `limit`.
  std::size_t range_scan(Key lo, Key hi, std::size_t limit,
                         std::vector<Key>& out) const {
    assert(valid() && lo >= 0 && lo < u_ && hi >= lo);
    if (hi >= u_) hi = u_ - 1;
    std::size_t n = 0;
    vsn::collect(root_, b_, 0, lo, hi, limit, n, out);
    return n;
  }

  /// Uniform surface with the validated-scan structures: a view's scan
  /// is atomic by construction, never retries.
  ScanResult range_scan_validated(Key lo, Key hi, std::size_t limit,
                                  std::vector<Key>& out,
                                  uint32_t /*max_retries*/ = 0) const {
    ScanResult r;
    r.n = range_scan(lo, hi, limit, out);
    r.atomic = true;
    Stats::count_scan_atomic();
    return r;
  }

 private:
  std::unique_ptr<ebr::Guard> pin_;
  const vsn::VNode* root_;
  Key u_;
  uint32_t b_;
};

}  // namespace lfbt
