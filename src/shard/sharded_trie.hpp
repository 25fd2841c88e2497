// ShardedTrie: horizontal partitioning of the paper's lock-free binary
// trie. Construction splits the universe U = {0..u-1} into S contiguous
// fixed-width ranges, each backed by a fully independent
// LockFreeBinaryTrie — its own latest/dNodePtr arrays, its own
// U-ALL/RU-ALL/P-ALL announcement lists — so shards share no contended
// cache lines and each shard's O(log u) update paths shrink to
// O(log width). Key x routes to shard x / width; the geometry never
// changes.
//
// Linearizability, in brief (full arguments: docs/DESIGN.md "Shard
// layer" and "Atomic scans"):
//   - contains/insert/erase touch one shard and inherit the inner op's
//     linearization point; shards own disjoint keys, so histories
//     compose by locality.
//   - predecessor/successor walk shards away from y, record each shard's
//     insert epoch (bumped after the inner insert returns), linearize at
//     the first shard that yields a key, and retry if any shard passed
//     over saw a completed insert.
//   - range_scan_validated records every touched shard's (ins, del)
//     epoch pair before probing it and re-reads them all at the end:
//     unchanged means the scan is atomic.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/lockfree_trie.hpp"
#include "sync/cacheline.hpp"
#include "sync/ebr.hpp"

namespace lfbt {

class ShardedTrie {
 public:
  static constexpr int kDefaultShards = 8;
  /// Hard cap on shards: the size of the per-shard epoch arrays a walk
  /// and a validated scan keep on the stack. Construction requests above
  /// the cap are clamped (width grows).
  static constexpr int kMaxShards = 64;

  explicit ShardedTrie(Key universe, int shards = kDefaultShards)
      : u_(universe),
        width_((universe + static_cast<Key>(clamped(shards)) - 1) /
               static_cast<Key>(clamped(shards))),
        n_(static_cast<int>((universe + width_ - 1) / width_)),
        shards_(new Shard[static_cast<std::size_t>(n_)]) {
    assert(universe >= 1 && shards >= 1);
    for (int s = 0; s < n_; ++s) {
      const Key base = static_cast<Key>(s) * width_;
      shards_[s].base = base;
      shards_[s].trie =
          std::make_unique<LockFreeBinaryTrie>(std::min(width_, u_ - base));
    }
  }

  ShardedTrie(const ShardedTrie&) = delete;
  ShardedTrie& operator=(const ShardedTrie&) = delete;

  Key universe() const noexcept { return u_; }
  int shard_count() const noexcept { return n_; }
  Key shard_width() const noexcept { return width_; }
  /// Index of the shard that owns x.
  int shard_of(Key x) const {
    assert(x >= 0 && x < u_);
    return static_cast<int>(x / width_);
  }
  /// Always 0: the geometry is fixed at construction.
  uint64_t reshard_count() const noexcept { return 0; }

  bool contains(Key x) {
    const Shard& s = shards_[shard_of(x)];
    return s.trie->contains(x - s.base);
  }

  /// Each update bumps its shard's insert (resp. delete) epoch after the
  /// inner op returns — the validation handshake of the cross-shard
  /// queries below.
  void insert(Key x) {
    Shard& s = shards_[shard_of(x)];
    s.trie->insert(x - s.base);
    s.ins_epoch.value.fetch_add(1);
  }
  void erase(Key x) {
    Shard& s = shards_[shard_of(x)];
    s.trie->erase(x - s.base);
    s.del_epoch.value.fetch_add(1);
  }

  /// Largest key < y, or kNoKey; y in [0, universe()]. Epoch-validated
  /// downward walk across shards.
  Key predecessor(Key y) {
    assert(y >= 0 && y <= u_);
    return y <= 0 ? kNoKey : walk<false>(y);
  }

  /// Smallest key > y, or kNoKey; y in [-1, universe()). The mirror
  /// image of predecessor.
  Key successor(Key y) {
    assert(y >= -1 && y < u_);
    return y >= u_ - 1 ? kNoKey : walk<true>(y);
  }

  /// Ascending keys of S ∩ [lo, hi], at most `limit`, appended to `out`;
  /// returns the number appended. The validated scan below, which keeps
  /// a weak-contract per-step walk once its retries run out.
  std::size_t range_scan(Key lo, Key hi, std::size_t limit,
                         std::vector<Key>& out) {
    return range_scan_validated(lo, hi, limit, out).n;
  }

  /// Epoch-validated cross-shard scan: walks shards upward with the O(1)
  /// empty-shard skip, under one guard per attempt (so every inner trie
  /// guard is a nested counter bump). atomic == true iff the kept walk
  /// validated.
  ScanResult range_scan_validated(Key lo, Key hi, std::size_t limit,
                                  std::vector<Key>& out,
                                  uint32_t max_retries = kDefaultScanRetries) {
    assert(lo >= 0 && lo < u_ && hi >= lo);
    if (hi >= u_) hi = u_ - 1;
    return retry_validated_scan(out, max_retries, [&](std::size_t& n) {
      ebr::Guard g;
      uint64_t ins[kMaxShards] = {};
      uint64_t del[kMaxShards] = {};
      const int first = shard_of(lo);
      int i = first;
      for (; i < n_ && n < limit; ++i) {
        const Shard& s = shards_[i];
        if (s.base > hi) break;
        // Record the shard's epoch pair BEFORE its first probe — also for
        // shards the empty-skip never probes: an insert landing behind
        // the skip must still fail validation.
        ins[i] = s.ins_epoch.value.load();
        del[i] = s.del_epoch.value.load();
        if (s.trie->empty()) continue;
        Key cursor = std::max(lo, s.base) - 1;  // report keys > cursor
        while (n < limit) {
          const Key r = probe<true>(s, cursor);
          if (r == kNoKey || r > hi) break;
          out.push_back(r);
          ++n;
          cursor = r;
        }
      }
      for (int k = first; k < i; ++k) {
        if (shards_[k].ins_epoch.value.load() != ins[k] ||
            shards_[k].del_epoch.value.load() != del[k]) {
          return false;
        }
      }
      return true;
    });
  }

  /// Sum of per-shard sizes; approximate under concurrency, exact at
  /// quiescence, never an undercount (each addend is conservative).
  std::size_t size() const {
    std::size_t n = 0;
    for (int s = 0; s < n_; ++s) n += shards_[s].trie->size();
    return n;
  }
  bool empty() const { return size() == 0; }

  /// Always 0: every node comes from the process-wide pools, which
  /// MemStats reports.
  std::size_t memory_reserved() const noexcept { return 0; }

 private:
  /// One range's backing store: global key x lives at local key x - base
  /// in `trie`. Cache-line-aligned so no two shards' epoch words (or the
  /// trie pointer read on every routed op) share a line.
  struct alignas(kCacheLine) Shard {
    std::unique_ptr<LockFreeBinaryTrie> trie;
    Key base = 0;
    /// Bumped after every insert routed here: the cross-shard validation
    /// handshake.
    PaddedAtomic<uint64_t> ins_epoch;
    /// Bumped after every erase routed here: scans validate it too, since
    /// an erase invalidates a reported key as an insert does a gap.
    PaddedAtomic<uint64_t> del_epoch;
  };

  static int clamped(int shards) {
    return shards < 1 ? 1 : (shards > kMaxShards ? kMaxShards : shards);
  }

  /// Cross-shard predecessor (Upward=false) or successor walk from y's
  /// owner, with epoch validation — see the header comment.
  template <bool Upward>
  Key walk(Key y) {
    constexpr int kStep = Upward ? 1 : -1;
    for (;;) {
      ebr::Guard g;
      const int s0 = shard_of(Upward ? y + 1 : y - 1);
      const int end = Upward ? n_ : -1;
      uint64_t ins[kMaxShards] = {};
      Key ans = kNoKey;
      int i = s0;
      for (; i != end; i += kStep) {
        // A walk validates insert epochs only; skip the delete epoch.
        const Shard& s = shards_[i];
        ins[i] = s.ins_epoch.value.load();
        if (s.trie->empty()) continue;
        ans = probe<Upward>(s, y);
        if (ans != kNoKey) break;
      }
      // The walk linearizes at its last observation (the answering
      // shard, or the final one); unchanged insert epochs pin "no key
      // past y appeared" in every shard walked before it.
      const int last = i == end ? i - kStep : i;
      bool valid = true;
      for (int k = s0; k != last && valid; k += kStep) {
        valid = shards_[k].ins_epoch.value.load() == ins[k];
      }
      if (valid) return ans;
    }
  }

  /// Nearest key of shard `s` past y (above when Upward), in global
  /// coordinates, or kNoKey.
  template <bool Upward>
  static Key probe(const Shard& s, Key y) {
    const Key local_u = s.trie->universe();
    if constexpr (Upward) {
      const Key ylocal = std::max<Key>(y - s.base, -1);
      if (ylocal >= local_u - 1) return kNoKey;
      const Key r = s.trie->successor(ylocal);
      return r == kNoKey ? kNoKey : s.base + r;
    } else {
      const Key ylocal = std::min(y - s.base, local_u);
      if (ylocal <= 0) return kNoKey;
      const Key r = s.trie->predecessor(ylocal);
      return r == kNoKey ? kNoKey : s.base + r;
    }
  }

  const Key u_;
  const Key width_;
  const int n_;
  const std::unique_ptr<Shard[]> shards_;
};

}  // namespace lfbt
