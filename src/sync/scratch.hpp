// Per-thread reusable scratch storage for the query hot path.
//
// Every embedded/announced query used to allocate a handful of fresh
// heap `std::vector`s (the P-ALL suffix snapshot, the position-list and
// notify-list collections, the ⊥-fallback working sets) and probe them
// with O(n) `std::find` scans, making the paper's O(c² + c̃ + log u)
// step bound carry an avoidable allocator constant and an O(n²)
// membership constant. This header removes both:
//
//  * `SmallVec<T, N>` — a trivially-copyable-element vector with N
//    elements of inline storage that spills to a malloc'd buffer which
//    is *kept* across clear(), so a long-lived (thread-local) instance
//    stops allocating after its high-water mark;
//  * `SortedSet<T, N>` — membership (insert-if-absent / contains) over a
//    sorted SmallVec with binary search: O(log n) probes instead of the
//    O(n) `contains_node` scans, O(n) insertion by memmove (n here is
//    bounded by point contention, so the move is a few cache lines);
//  * `QueryScratch` — one thread-local bundle of all the buffers a
//    fused query helper (core/lockfree_trie.cpp) needs, grouped so the
//    pred- and succ-direction collections never alias. Queries are never
//    nested on one thread (the trie's helpers are leaf calls), so a
//    single instance per thread suffices; `reset()` is O(#buffers) and
//    frees nothing.
//
// Elements are raw pointers and keys; buffers hold no ownership. Nothing
// here is thread-safe — each thread touches only its own instance.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <type_traits>

#include "core/types.hpp"

namespace lfbt {

struct UpdateNode;
struct PredecessorNode;

/// Vector with inline storage for the common (low-contention) case.
/// Spilled capacity is retained until destruction, so thread-local
/// instances amortise to zero allocations on the hot path.
template <class T, std::size_t InlineN>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  SmallVec() = default;
  SmallVec(const SmallVec&) = delete;
  SmallVec& operator=(const SmallVec&) = delete;
  ~SmallVec() { std::free(heap_); }

  void clear() noexcept { size_ = 0; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  T* begin() noexcept { return data(); }
  T* end() noexcept { return data() + size_; }
  const T* begin() const noexcept { return data(); }
  const T* end() const noexcept { return data() + size_; }
  T& operator[](std::size_t i) noexcept { return data()[i]; }
  const T& operator[](std::size_t i) const noexcept { return data()[i]; }
  T& back() noexcept { return data()[size_ - 1]; }

  void push_back(const T& v) {
    if (size_ == cap_) grow();
    data()[size_++] = v;
  }

  /// Erase-remove of every element equal to `v` (order-preserving).
  void remove_value(const T& v) noexcept {
    T* d = data();
    std::size_t out = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      if (!(d[i] == v)) d[out++] = d[i];
    }
    size_ = out;
  }

  void reverse() noexcept { std::reverse(begin(), end()); }

  T* data() noexcept { return heap_ != nullptr ? heap_ : inline_; }
  const T* data() const noexcept { return heap_ != nullptr ? heap_ : inline_; }

 private:
  void grow() {
    const std::size_t new_cap = cap_ * 2;
    T* p = static_cast<T*>(std::malloc(new_cap * sizeof(T)));
    if (p == nullptr) std::abort();  // hot path: no exceptions, fail loudly
    std::memcpy(p, data(), size_ * sizeof(T));
    std::free(heap_);
    heap_ = p;
    cap_ = new_cap;
  }

  T inline_[InlineN];
  T* heap_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = InlineN;
};

/// Sorted-array membership set: contains() is a binary search, insert()
/// keeps order with one element move. Replaces the linear
/// `contains_node`/`push_unique` scans of the pre-fused query path.
/// Ordering goes through std::less: for the pointer instantiations the
/// built-in `<` on unrelated objects is not guaranteed to be a strict
/// total order, while std::less is.
template <class T, std::size_t InlineN>
class SortedSet {
 public:
  void clear() noexcept { v_.clear(); }
  std::size_t size() const noexcept { return v_.size(); }
  bool empty() const noexcept { return v_.empty(); }
  const T* begin() const noexcept { return v_.begin(); }
  const T* end() const noexcept { return v_.end(); }

  bool contains(const T& x) const noexcept {
    const T* it = std::lower_bound(v_.begin(), v_.end(), x, std::less<T>());
    return it != v_.end() && *it == x;
  }

  /// Inserts `x` unless present; returns true iff it was inserted (i.e.
  /// this is the first occurrence — the "push_unique" admission test).
  bool insert(const T& x) {
    T* const b = v_.begin();
    T* const it = std::lower_bound(b, v_.end(), x, std::less<T>());
    if (it != v_.end() && *it == x) return false;
    const std::size_t pos = static_cast<std::size_t>(it - b);
    v_.push_back(x);  // may reallocate; recompute pointers after
    T* d = v_.data();
    std::memmove(d + pos + 1, d + pos, (v_.size() - 1 - pos) * sizeof(T));
    d[pos] = x;
    return true;
  }

 private:
  SmallVec<T, InlineN> v_;
};

/// First-activated update nodes collected from an announcement-list walk,
/// split by type. `ins` preserves the walk's (ascending) key order — the
/// notifier's extremum searches rely on it.
struct UallBufs {
  SmallVec<UpdateNode*, 16> ins;
  SmallVec<UpdateNode*, 16> del;
  void clear() noexcept {
    ins.clear();
    del.clear();
  }
};

/// Per-direction collections of one fused query invocation. Their
/// readers take extrema, test membership or build further sets, so each
/// is one sorted set in pointer order; the sets also dedup (one update
/// node may be notified by several helpers).
struct DirScratch {
  // Position-list walk results.
  SortedSet<const UpdateNode*, 16> d_pos;
  SortedSet<const UpdateNode*, 16> i_pos;
  // Notify-list acceptance results.
  SortedSet<const UpdateNode*, 16> i_notify;
  SortedSet<const UpdateNode*, 16> d_notify;
  // The directional U-ALL collection (below the key for predecessor,
  // above it for successor).
  UallBufs uall;

  void clear() noexcept {
    d_pos.clear();
    i_pos.clear();
    i_notify.clear();
    d_notify.clear();
    uall.clear();
  }
};

/// All reusable buffers of one thread's query hot path. `side` is indexed
/// like every per-direction field (kPredSide, kSuccSide). `notify_uall` is
/// separate because notify_query_ops runs *between* (never inside) the
/// fused helper invocations of a Delete and must not clobber them — on
/// one thread the helper and the notifier are never live simultaneously
/// with the same buffer group.
struct QueryScratch {
  // P-ALL suffix snapshot, newest-first (the paper's Q reversed; the
  // fallback's oldest-first scan iterates it backwards instead of paying
  // a reverse per query).
  SmallVec<PredecessorNode*, 32> q;
  DirScratch side[kNumSides];

  // notify_query_ops' U-ALL snapshot (whole list, both types).
  UallBufs notify_uall;

  // ⊥-fallback working sets (live only inside one direction's fallback).
  SmallVec<UpdateNode*, 16> l1;
  SmallVec<UpdateNode*, 16> l2;
  SmallVec<UpdateNode*, 16> l_filtered;
  SortedSet<const UpdateNode*, 16> l_seen;
  SortedSet<Key, 16> key_seen;
  SmallVec<Key, 16> x_set;
  struct Edge {
    Key from;
    Key to;
  };
  SmallVec<Edge, 16> edges;

  /// Clears the per-invocation buffers (the fallback buffers are cleared
  /// at their use sites). O(#buffers); never frees capacity.
  void reset_query() noexcept {
    q.clear();
    side[0].clear();
    side[1].clear();
  }

  static QueryScratch& get() noexcept {
    thread_local QueryScratch s;
    return s;
  }
};

}  // namespace lfbt
