// Versioned range-map routing for ShardedTrie's online resharding: an
// immutable RangeTable snapshot of contiguous ranges, each backed by an
// independent LockFreeBinaryTrie Shard. The control plane publishes a
// new table per split/merge with one pointer store and retires the old
// one through EBR, so data-plane operations (which read the table under
// an ebr::Guard) never see a torn map and never lock. A shard that is
// mid-migration carries a SplitCtl whose one atomic word, written only
// by the migrator, is [63] copy flag | [62:0] global watermark: keys in
// [move_lo, watermark) have moved to dst, the rest are still in src, and
// while the copy flag is up the window [watermark, watermark + kBatch)
// belongs to the migrator alone. See docs/DESIGN.md "Dynamic
// resharding" for the protocol and its proofs.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>

#include "core/lockfree_trie.hpp"
#include "sync/cacheline.hpp"

namespace lfbt::reshard {

inline constexpr uint64_t kCopyBit = uint64_t{1} << 63;

inline constexpr uint64_t pack_mig(bool copy, Key watermark) {
  return (copy ? kCopyBit : 0) | static_cast<uint64_t>(watermark);
}
inline constexpr bool mig_copy(uint64_t w) { return (w & kCopyBit) != 0; }
inline constexpr Key mig_watermark(uint64_t w) {
  return static_cast<Key>(w & ~kCopyBit);
}

struct SplitCtl;

/// One range's backing store. Global key x lives at local key x - base in
/// `trie`; after merges a trie's universe may exceed the width of the
/// range currently routed to it, so every observation clamps to the
/// routing table's range bounds, never to the trie universe alone.
/// Cache-line-aligned so no two shards' epoch words (or the trie pointer
/// read on every routed op) share a line.
struct alignas(kCacheLine) Shard {
  std::unique_ptr<LockFreeBinaryTrie> trie;
  Key base = 0;
  /// Bumped after every client insert routed to this shard's trie; the
  /// cross-shard validation handshake (sharded_trie.hpp) and the insert
  /// half of the load observer. Migration moves do NOT bump it — a move
  /// changes which trie holds a key, never the src∪dst union.
  PaddedAtomic<uint64_t> ins_epoch;
  /// Bumped after every client erase routed here: the erase half of the
  /// load observer, and the staleness check for union pair-reads.
  PaddedAtomic<uint64_t> del_epoch;
  /// The migration draining keys OUT of this shard, or nullptr. Cleared
  /// (and the ctl retired) one grace period after the migration's table
  /// is published, before the next migration may start.
  std::atomic<SplitCtl*> ctl{nullptr};
  /// maybe_split's last observed load (under ShardedTrie's ctl mutex).
  uint64_t load_snap = 0;

  Shard(Key base_key, Key local_universe)
      : trie(std::make_unique<LockFreeBinaryTrie>(local_universe)),
        base(base_key) {}

  uint64_t load() const {
    return ins_epoch.value.load() + del_epoch.value.load();
  }
};

/// One migration: drain global keys [move_lo, move_hi) from src into dst.
/// For a split, dst is a fresh shard that takes over the top half of
/// src's range at publication; for a merge, dst is the left neighbour
/// (whose trie already spans both ranges) and src, the right entry's
/// shard, is retired.
struct SplitCtl {
  static constexpr Key kBatch = 64;

  const Key move_lo;
  const Key move_hi;
  Shard* const src;
  Shard* const dst;
  const bool merge;
  std::atomic<uint64_t> word{0};  // set to (false, move_lo) at install
};

/// Immutable routing snapshot: n contiguous ranges [lo[i], lo[i+1])
/// with lo[n] == universe. The construction-time table keeps the O(1)
/// fixed-width lookup; republished tables binary-search (n <= 64).
struct RangeTable {
  static constexpr int kMaxRanges = 64;  // == ShardedTrie::kMaxShards

  int n = 0;
  Key fixed_width = 0;  // >0 only on the construction-time table
  Key lo[kMaxRanges + 1] = {};
  Shard* shard[kMaxRanges] = {};

  int find(Key x) const {
    assert(x >= 0 && x < lo[n]);
    if (fixed_width > 0) return static_cast<int>(x / fixed_width);
    return static_cast<int>(std::upper_bound(lo + 1, lo + n, x) - lo) - 1;
  }
};

}  // namespace lfbt::reshard
