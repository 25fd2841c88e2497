// EncodedOrderedSet: the typed front door. Composes a KeyCodec<K>
// (keys/key_codec.hpp) with ANY inner Key-universe structure modelling
// the repository concepts — the flat lock-free trie, the sharded trie,
// the compressed trie, a baseline — and exposes the ordered-set API in
// K's own terms: insert/erase/contains(const K&), optional<K>
// predecessor/successor/floor, typed range scans. Order queries decode
// back through the codec; the validated-scan honesty flag
// (ScanResult::atomic) passes through untouched, because the adapter
// adds no concurrency of its own — it is a pure bijective relabeling
// of the inner key space, so every linearizability property of the
// inner structure transfers verbatim.
//
// KeyspaceView: the same composition turned back INTO a Key-typed
// OrderedSet via the codec's ordinal bridge (a monotone bijection
// between the dense ordinal space [0, u) and a slice of K's domain).
// This is what registers encoded keys on the workload harness and every
// existing torture layer: Wing–Gong, split-torture, scan-torture and
// soak all speak Key, and through the view each of their ops makes the
// full ordinal → K → encode round trip before touching the inner
// structure. A bug anywhere in the
// codec shows up as a linearizability violation the existing oracles
// already know how to catch.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "keys/key_codec.hpp"
#include "query/range_scan.hpp"
#include "shard/ordered_set.hpp"

namespace lfbt::keys {

template <EncodableKey K, OrderedSet Inner>
class EncodedOrderedSet {
 public:
  using Codec = KeyCodec<K>;

  /// `inner_universe` is the size of the bit-string space the inner
  /// structure hosts; keys must satisfy Codec::in_domain at
  /// width = bit_width(inner_universe - 1). Fixed-width key types can
  /// pass their natural space (Key{1} << Codec::kEncodedWidth) when the
  /// inner structure can host it (the compressed trie can; the dense
  /// TrieCore-backed ones want small universes — their O(universe)
  /// preallocation is the whole reason keys/compressed_trie.hpp exists).
  explicit EncodedOrderedSet(Key inner_universe)
      : width_(width_of(inner_universe)),
        inner_u_(inner_universe),
        inner_(inner_universe) {}

  EncodedOrderedSet(Key inner_universe, int shards)
    requires ShardedOrderedSet<Inner>
      : width_(width_of(inner_universe)),
        inner_u_(inner_universe),
        inner_(inner_universe, shards) {}

  uint32_t encoded_width() const noexcept { return width_; }
  bool in_domain(const K& k) const { return Codec::in_domain(k, width_); }

  void insert(const K& k) { inner_.insert(enc(k)); }
  void erase(const K& k) { inner_.erase(enc(k)); }
  bool contains(const K& k) { return inner_.contains(enc(k)); }

  /// Largest key < k, if any. Linearizable iff the inner structure's
  /// predecessor is (it is, for every shipped structure).
  std::optional<K> predecessor(const K& k) { return dec(inner_.predecessor(enc(k))); }

  std::optional<K> successor(const K& k)
  {
    return dec(inner_.successor(static_cast<Key>(Codec::encode(k, width_))));
  }

  /// Largest key <= k (longest-prefix-match workhorse: see
  /// examples/ip_router.cpp). Two inner calls; atomic only at
  /// quiescence — racy callers should use predecessor on k's successor
  /// domain instead.
  std::optional<K> floor(const K& k) {
    const Key e = enc(k);
    if (inner_.contains(e)) return Codec::decode(static_cast<Encoded>(e), width_);
    return dec(inner_.predecessor(e));
  }

  std::optional<K> first()
  {
    return dec(inner_.successor(Key{-1}));
  }
  // Query point is the INNER universe, not 2^width: a non-power-of-two
  // inner structure's predecessor contract stops at its own u.
  std::optional<K> last() { return dec(inner_.predecessor(inner_u_)); }

  /// Ascending keys in [lo, hi], appended decoded; returns the count.
  /// Weak-consistency contract of query/range_scan.hpp.
  std::size_t range_scan(const K& lo, const K& hi, std::size_t limit,
                         std::vector<K>& out)
  {
    std::vector<Key> scratch;
    const std::size_t n = inner_.range_scan(enc(lo), enc(hi), limit, scratch);
    decode_into(scratch, out);
    return n;
  }

  /// Validated flavour: ScanResult::atomic is the INNER structure's
  /// verdict, passed through unmodified (the codec bijection cannot
  /// create or hide interleavings).
  ScanResult range_scan_validated(const K& lo, const K& hi, std::size_t limit,
                                  std::vector<K>& out,
                                  uint32_t max_retries = kDefaultScanRetries)
    requires AtomicScanOrderedSet<Inner>
  {
    std::vector<Key> scratch;
    const ScanResult r =
        inner_.range_scan_validated(enc(lo), enc(hi), limit, scratch, max_retries);
    decode_into(scratch, out);
    return r;
  }

  std::size_t size() const
    requires SizedOrderedSet<Inner>
  {
    return inner_.size();
  }
  bool empty() const
    requires SizedOrderedSet<Inner>
  {
    return inner_.empty();
  }
  std::size_t memory_reserved() const
    requires MemoryReportingOrderedSet<Inner>
  {
    return inner_.memory_reserved();
  }
  int shard_count() const
    requires ShardedOrderedSet<Inner>
  {
    return inner_.shard_count();
  }

  Inner& inner() noexcept { return inner_; }
  const Inner& inner() const noexcept { return inner_; }

 private:
  static uint32_t width_of(Key inner_universe) {
    assert(inner_universe >= 2);
    const auto w = static_cast<uint32_t>(
        std::bit_width(static_cast<uint64_t>(inner_universe) - 1));
    assert(w <= kMaxEncodedWidth);
    return w;
  }

  Key enc(const K& k) const {
    assert(in_domain(k));
    const Key e = static_cast<Key>(Codec::encode(k, width_));
    assert(e < inner_u_);  // callers own the non-power-of-two sub-range
    return e;
  }
  std::optional<K> dec(Key e) const {
    if (e == kNoKey) return std::nullopt;
    return Codec::decode(static_cast<Encoded>(e), width_);
  }
  // Scan scratch lives on the caller's stack (not a member): the
  // adapter must stay as thread-safe as the inner structure, and the
  // torture layers scan one shared instance from many threads.
  void decode_into(const std::vector<Key>& scratch, std::vector<K>& out) const {
    for (Key e : scratch) {
      out.push_back(Codec::decode(static_cast<Encoded>(e), width_));
    }
  }

  const uint32_t width_;
  const Key inner_u_;
  Inner inner_;
};

/// Key-typed view of an EncodedOrderedSet: ordinal x in [0, u) stands
/// for the typed key Codec::from_ordinal(x). Models the same concept
/// set as the inner structure (OrderedSet, Sized, AtomicScan,
/// MemoryReporting, Sharded — each refinement appears exactly when
/// Inner has it), so the harness's make_set/prefill/run_bench and
/// the stress runner drive it like any native structure while every op
/// exercises the full codec path.
template <EncodableKey K, OrderedSet Inner>
class KeyspaceView {
 public:
  using Codec = KeyCodec<K>;

  explicit KeyspaceView(Key view_universe)
      : u_(view_universe), set_(Codec::inner_universe_for(view_universe)) {}

  KeyspaceView(Key view_universe, int shards)
    requires ShardedOrderedSet<Inner>
      : u_(view_universe),
        set_(Codec::inner_universe_for(view_universe), shards) {}

  Key universe() const noexcept { return u_; }

  void insert(Key x) { set_.insert(typed(x)); }
  void erase(Key x) { set_.erase(typed(x)); }
  bool contains(Key x) { return set_.contains(typed(x)); }

  /// Largest ordinal < y, or kNoKey; y in [0, universe()]. The ordinal
  /// map is monotone, so the typed predecessor IS the ordinal
  /// predecessor's image.
  Key predecessor(Key y) {
    assert(y >= 0 && y <= u_);
    const auto p = y >= u_ ? set_.last() : set_.predecessor(typed(y));
    return p ? ord(*p) : kNoKey;
  }

  Key successor(Key y)
  {
    assert(y >= -1 && y < u_);
    const auto s = y < 0 ? set_.first() : set_.successor(typed(y));
    return s ? ord(*s) : kNoKey;
  }

  std::size_t range_scan(Key lo, Key hi, std::size_t limit,
                         std::vector<Key>& out)
  {
    assert(lo >= 0 && lo < u_ && hi >= lo);
    std::vector<K> typed_out;
    const std::size_t n =
        set_.range_scan(typed(lo), typed(hi < u_ ? hi : u_ - 1), limit, typed_out);
    for (const K& k : typed_out) out.push_back(ord(k));
    return n;
  }

  ScanResult range_scan_validated(Key lo, Key hi, std::size_t limit,
                                  std::vector<Key>& out,
                                  uint32_t max_retries = kDefaultScanRetries)
    requires AtomicScanOrderedSet<Inner>
  {
    assert(lo >= 0 && lo < u_ && hi >= lo);
    std::vector<K> typed_out;
    const ScanResult r = set_.range_scan_validated(
        typed(lo), typed(hi < u_ ? hi : u_ - 1), limit, typed_out, max_retries);
    for (const K& k : typed_out) out.push_back(ord(k));
    return r;
  }

  std::size_t size() const
    requires SizedOrderedSet<Inner>
  {
    return set_.size();
  }
  bool empty() const
    requires SizedOrderedSet<Inner>
  {
    return set_.empty();
  }
  std::size_t memory_reserved() const
    requires MemoryReportingOrderedSet<Inner>
  {
    return set_.memory_reserved();
  }
  int shard_count() const
    requires ShardedOrderedSet<Inner>
  {
    return set_.shard_count();
  }

  EncodedOrderedSet<K, Inner>& typed_set() noexcept { return set_; }

 private:
  K typed(Key x) const {
    assert(x >= 0 && x < u_);
    return Codec::from_ordinal(x, set_.encoded_width());
  }
  Key ord(const K& k) const { return Codec::to_ordinal(k, set_.encoded_width()); }

  const Key u_;
  EncodedOrderedSet<K, Inner> set_;
};

}  // namespace lfbt::keys
