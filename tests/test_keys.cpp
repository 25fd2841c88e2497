// The key-encoding layer (src/keys/): codec order-preservation and
// round-trip properties, the compressed trie differentially against the
// dense core trie and std::set, typed adapters over real key types, and
// the full existing torture arsenal — Wing–Gong linearizability,
// scan recording, churn soak — driven through KeyspaceView so every op
// makes the ordinal → typed-key → encode round trip.
#include "keys/encoded_set.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "baselines/locked_map.hpp"
#include "core/lockfree_trie.hpp"
#include "ebr_test_util.hpp"
#include "keys/compressed_trie.hpp"
#include "keys/key_codec.hpp"
#include "set_test_util.hpp"
#include "shard/sharded_trie.hpp"
#include "stress_util.hpp"
#include "workload/soak.hpp"

namespace lfbt {
namespace {

using keys::EncodedOrderedSet;
using keys::Encoded;
using keys::KeyCodec;
using keys::KeyspaceView;

// ---- Concept surface ----------------------------------------------------

static_assert(AtomicScanOrderedSet<CompressedBitTrie>);
static_assert(SizedOrderedSet<CompressedBitTrie>);
static_assert(MemoryReportingOrderedSet<CompressedBitTrie>);
static_assert(OrderedSet<LockedStdSet>);
static_assert(AtomicScanOrderedSet<LockedStdSet>);
static_assert(AtomicScanOrderedSet<KeyspaceView<uint64_t, LockFreeBinaryTrie>>);
static_assert(SizedOrderedSet<KeyspaceView<int64_t, CompressedBitTrie>>);
static_assert(
    MemoryReportingOrderedSet<KeyspaceView<uint64_t, CompressedBitTrie>>);
static_assert(ShardedOrderedSet<KeyspaceView<std::string, ShardedTrie>>);
static_assert(AtomicScanOrderedSet<KeyspaceView<std::string, ShardedTrie>>);
static_assert(KeyCodec<uint64_t>::kEncodedWidth == keys::kMaxEncodedWidth);
static_assert(KeyCodec<int64_t>::kEncodedWidth == keys::kMaxEncodedWidth);
static_assert(KeyCodec<uint32_t>::kEncodedWidth == 32);
static_assert(KeyCodec<int32_t>::kEncodedWidth == 32);

// ---- Codec properties ---------------------------------------------------

// Random in-domain values for each codec at a given width.
template <class T>
T random_in_domain(Xoshiro256& rng, uint32_t width) {
  if constexpr (std::is_signed_v<T>) {
    const int64_t half = int64_t{1} << (width - 1);
    return static_cast<T>(
        static_cast<int64_t>(rng.next() % (2 * static_cast<uint64_t>(half))) -
        half);
  } else {
    return static_cast<T>(rng.next() &
                          ((width >= 64) ? ~uint64_t{0}
                                         : ((uint64_t{1} << width) - 1)));
  }
}

template <class T>
void integer_codec_property(uint32_t width, uint64_t seed) {
  using C = KeyCodec<T>;
  Xoshiro256 rng(seed);
  for (int i = 0; i < 20000; ++i) {
    const T a = random_in_domain<T>(rng, width);
    const T b = random_in_domain<T>(rng, width);
    ASSERT_TRUE(C::in_domain(a, width));
    const Encoded ea = C::encode(a, width);
    const Encoded eb = C::encode(b, width);
    // Order preservation, bitwise: unsigned comparison of the encoded
    // values IS MSB-first bit-string comparison.
    ASSERT_EQ(a < b, ea < eb) << "width=" << width;
    ASSERT_EQ(a == b, ea == eb);
    // Round trip and width occupancy.
    ASSERT_EQ(C::decode(ea, width), a);
    ASSERT_EQ(ea >> width, 0u);
    // Ordinal bridge is the same bijection from the dense side.
    ASSERT_EQ(C::to_ordinal(C::from_ordinal(static_cast<Key>(ea), width), width),
              static_cast<Key>(ea));
  }
}

TEST(KeyCodecProperty, UnsignedNaturalWidths) {
  integer_codec_property<uint64_t>(KeyCodec<uint64_t>::kEncodedWidth, 1);
  integer_codec_property<uint32_t>(32, 2);
  integer_codec_property<uint16_t>(16, 3);
}

TEST(KeyCodecProperty, SignedNaturalWidths) {
  integer_codec_property<int64_t>(KeyCodec<int64_t>::kEncodedWidth, 4);
  integer_codec_property<int32_t>(32, 5);
}

TEST(KeyCodecProperty, NarrowedRuntimeWidths) {
  // The same codec serves a small dense-trie universe: a 2^20 view.
  integer_codec_property<uint64_t>(20, 6);
  integer_codec_property<int64_t>(20, 7);
  integer_codec_property<int32_t>(12, 8);
}

TEST(KeyCodecProperty, SignedEdgeValues) {
  using C = KeyCodec<int64_t>;
  const uint32_t w = C::kEncodedWidth;
  const int64_t lo = -(int64_t{1} << (w - 1));
  const int64_t hi = (int64_t{1} << (w - 1)) - 1;
  EXPECT_TRUE(C::in_domain(lo, w));
  EXPECT_TRUE(C::in_domain(hi, w));
  EXPECT_FALSE(C::in_domain(lo - 1, w));
  EXPECT_FALSE(C::in_domain(hi + 1, w));
  EXPECT_EQ(C::encode(lo, w), 0u);
  EXPECT_EQ(C::encode(hi, w), (Encoded{1} << w) - 1);
  EXPECT_LT(C::encode(-1, w), C::encode(0, w));
  EXPECT_EQ(C::decode(C::encode(-1, w), w), -1);
}

std::string random_string(Xoshiro256& rng, uint32_t max_bytes) {
  std::string s(rng.bounded(max_bytes + 1), '\0');
  for (char& c : s) c = static_cast<char>(rng.bounded(256));
  return s;
}

TEST(KeyCodecProperty, StringOrderAndRoundTrip) {
  using C = KeyCodec<std::string>;
  const uint32_t w = keys::kMaxEncodedWidth;
  Xoshiro256 rng(11);
  for (int i = 0; i < 20000; ++i) {
    std::string a = random_string(rng, C::max_len(w));
    std::string b = random_string(rng, C::max_len(w));
    // A third of the pairs are prefix-related — the length-aware case
    // the 9-bit marker groups exist for.
    if (rng.bounded(3) == 0) b = a.substr(0, rng.bounded(a.size() + 1));
    const Encoded ea = C::encode(a, w);
    const Encoded eb = C::encode(b, w);
    ASSERT_EQ(a < b, ea < eb) << i;
    ASSERT_EQ(a == b, ea == eb) << i;
    ASSERT_EQ(C::decode(ea, w), a) << i;
  }
}

TEST(KeyCodecProperty, StringEmbeddedNulAndPrefixEdges) {
  using C = KeyCodec<std::string>;
  const uint32_t w = keys::kMaxEncodedWidth;
  // No terminator byte is sacrificed: NUL is an ordinary key byte.
  const std::string a("a\0", 2), plain_a("a"), b("a\x01", 2);
  EXPECT_EQ(C::decode(C::encode(a, w), w), a);
  EXPECT_LT(C::encode(plain_a, w), C::encode(a, w));  // prefix sorts first
  EXPECT_LT(C::encode(a, w), C::encode(b, w));
  EXPECT_EQ(C::encode("", w), 0u);
  EXPECT_EQ(C::decode(0, w), "");
  EXPECT_TRUE(C::in_domain(std::string(C::max_len(w), 'z'), w));
  EXPECT_FALSE(C::in_domain(std::string(C::max_len(w) + 1, 'z'), w));
}

TEST(KeyCodecProperty, StringOrdinalBridgeMonotone) {
  using C = KeyCodec<std::string>;
  const Key u = 1 << 10;
  const Key inner_u = C::inner_universe_for(u);
  const auto w = static_cast<uint32_t>(
      std::bit_width(static_cast<uint64_t>(inner_u) - 1));
  Key prev_ord = -1;
  Encoded prev_enc = 0;
  for (Key x = 0; x < u; ++x) {
    const std::string s = C::from_ordinal(x, w);
    ASSERT_EQ(C::to_ordinal(s, w), x);
    const Encoded e = C::encode(s, w);
    ASSERT_LT(e, static_cast<Encoded>(inner_u));
    if (prev_ord >= 0) {
      ASSERT_LT(prev_enc, e) << "x=" << x;
    }
    prev_ord = x;
    prev_enc = e;
  }
}

// ---- CompressedBitTrie: sequential correctness --------------------------

TEST(CompressedTrie, DifferentialVsStdSet) {
  CompressedBitTrie t(Key{1} << 16);
  testutil::sequential_differential(t, Key{1} << 16, 60000, 101);
}

TEST(CompressedTrie, DifferentialSparseUniverse) {
  // The whole point: a universe no dense trie could preallocate.
  CompressedBitTrie t(Key{1} << 42);
  testutil::sequential_differential(t, Key{1} << 42, 60000, 103);
}

TEST(CompressedTrie, NonPowerOfTwoUniverse) {
  CompressedBitTrie t(1000);
  testutil::sequential_differential(t, 1000, 30000, 104);
  testutil::quiescent_predecessor_exact(t, 1000);
}

// The compressed trie and the dense core trie must agree on every answer
// of a shared random op stream.
TEST(CompressedTrie, DifferentialVsDenseCoreTrie) {
  const Key u = Key{1} << 14;
  CompressedBitTrie comp(u);
  LockFreeBinaryTrie dense(u);
  Xoshiro256 rng(105);
  for (int i = 0; i < 40000; ++i) {
    const Key k = static_cast<Key>(rng.bounded(static_cast<uint64_t>(u)));
    switch (rng.bounded(5)) {
      case 0:
        comp.insert(k);
        dense.insert(k);
        break;
      case 1:
        comp.erase(k);
        dense.erase(k);
        break;
      case 2:
        ASSERT_EQ(comp.contains(k), dense.contains(k)) << i;
        break;
      case 3:
        ASSERT_EQ(comp.predecessor(k + 1), dense.predecessor(k + 1)) << i;
        break;
      default:
        ASSERT_EQ(comp.successor(k - 1), dense.successor(k - 1)) << i;
    }
    if (i % 8192 == 0) {
      std::vector<Key> a, c;
      const Key lo = static_cast<Key>(rng.bounded(static_cast<uint64_t>(u)));
      const Key hi = std::min<Key>(lo + 500, u - 1);
      comp.range_scan(lo, hi, kNoScanLimit, a);
      dense.range_scan(lo, hi, kNoScanLimit, c);
      ASSERT_EQ(a, c) << i;
    }
  }
  EXPECT_EQ(comp.size(), dense.size());
}

TEST(CompressedTrie, MemoryScalesWithKeysNotUniverse) {
  CompressedBitTrie t(Key{1} << 42);
  EXPECT_EQ(t.memory_reserved(), 0u);
  for (Key k = 0; k < 1000; ++k) t.insert(k * 0x9E3779B9ull % (Key{1} << 42));
  // O(n) nodes for n keys: a sparse 2^42 universe costs kilobytes, not
  // the dense trie's O(universe) arrays.
  EXPECT_LT(t.memory_reserved(), 200u * 1024);
  EXPECT_GT(t.memory_reserved(), 0u);
  const std::size_t peak = t.memory_reserved();
  std::vector<Key> all;
  t.range_scan(0, (Key{1} << 42) - 1, kNoScanLimit, all);
  for (Key k : all) t.erase(k);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_LT(t.memory_reserved(), peak);
}

// ---- CompressedBitTrie: concurrency -------------------------------------

TEST(CompressedTrieConcurrent, ContentionHammer) {
  CompressedBitTrie t(Key{1} << 20);
  testutil::contention_hammer(t, Key{1} << 20, 4, 30000, 201);
}

TEST(CompressedTrieConcurrent, DisjointRangeDeterminism) {
  CompressedBitTrie t(Key{1} << 20);
  testutil::disjoint_range_determinism(t, 4, Key{1} << 12, 30000, 202);
  testutil::quiescent_predecessor_exact(t, Key{1} << 8);
}

TEST(CompressedTrieConcurrent, WingGongLinearizability) {
  CompressedBitTrie t(64);
  testutil::StressSpec spec;
  spec.universe = 64;
  spec.threads = 4;
  spec.rounds = 40;
  spec.pred_weight = 25;
  spec.succ_weight = 15;
  spec.scan_weight = 10;
  spec.seed = 203;
  testutil::linearizability_stress(t, spec);
}

TEST(CompressedTrieConcurrent, ValidatedScanAtomicUnderInterference) {
  CompressedBitTrie t(Key{1} << 16);
  for (Key k = 0; k < (1 << 16); k += 7) t.insert(k);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Xoshiro256 rng(205);
    while (!stop.load()) {
      const Key k = static_cast<Key>(rng.bounded(uint64_t{1} << 16));
      if (rng.bounded(2)) {
        t.insert(k);
      } else {
        t.erase(k);
      }
    }
  });
  int atomic_scans = 0;
  for (int i = 0; i < 300; ++i) {
    std::vector<Key> out;
    const ScanResult r = t.range_scan_validated(0, 4096, kNoScanLimit, out);
    if (r.atomic) ++atomic_scans;
    // Weak floor regardless of validation: ascending, in-window.
    for (std::size_t j = 1; j < out.size(); ++j) {
      ASSERT_LT(out[j - 1], out[j]);
    }
    if (!out.empty()) {
      ASSERT_GE(out.front(), 0);
      ASSERT_LE(out.back(), 4096);
    }
  }
  stop = true;
  writer.join();
  // After its bounded retries a scan takes the write mutex for one walk,
  // so scans land atomic even under constant interference.
  EXPECT_GT(atomic_scans, 0);
}

// ---- Typed adapter (EncodedOrderedSet) ----------------------------------

template <class K, class Inner>
void typed_differential(EncodedOrderedSet<K, Inner>& s,
                        const std::vector<K>& pool, uint64_t seed) {
  std::set<K> ref;
  Xoshiro256 rng(seed);
  for (int i = 0; i < 30000; ++i) {
    const K& k = pool[rng.bounded(pool.size())];
    switch (rng.bounded(5)) {
      case 0:
        s.insert(k);
        ref.insert(k);
        break;
      case 1:
        s.erase(k);
        ref.erase(k);
        break;
      case 2:
        ASSERT_EQ(s.contains(k), ref.count(k) > 0) << i;
        break;
      case 3: {
        const auto got = s.predecessor(k);
        auto it = ref.lower_bound(k);
        const std::optional<K> want =
            it == ref.begin() ? std::nullopt
                              : std::make_optional(*std::prev(it));
        ASSERT_EQ(got, want) << i;
        break;
      }
      default: {
        const auto got = s.successor(k);
        auto it = ref.upper_bound(k);
        const std::optional<K> want =
            it == ref.end() ? std::nullopt : std::make_optional(*it);
        ASSERT_EQ(got, want) << i;
      }
    }
  }
  // Quiescent sweep of the whole typed surface.
  ASSERT_EQ(s.first(), ref.empty() ? std::nullopt
                                   : std::make_optional(*ref.begin()));
  ASSERT_EQ(s.last(), ref.empty() ? std::nullopt
                                  : std::make_optional(*ref.rbegin()));
  for (const K& k : pool) {
    auto it = ref.upper_bound(k);
    const std::optional<K> want =
        it == ref.begin() ? std::nullopt : std::make_optional(*std::prev(it));
    ASSERT_EQ(s.floor(k), want);
  }
  if (!ref.empty()) {
    std::vector<K> got;
    const std::size_t n =
        s.range_scan(*ref.begin(), *ref.rbegin(), kNoScanLimit, got);
    ASSERT_EQ(n, ref.size());
    ASSERT_TRUE(std::equal(got.begin(), got.end(), ref.begin(), ref.end()));
  }
}

TEST(EncodedSet, U64OverCompressedSparse) {
  EncodedOrderedSet<uint64_t, CompressedBitTrie> s(Key{1} << 42);
  std::vector<uint64_t> pool;
  Xoshiro256 rng(301);
  for (int i = 0; i < 500; ++i) {
    pool.push_back(rng.next() & ((uint64_t{1} << 42) - 1));
  }
  typed_differential(s, pool, 302);
}

TEST(EncodedSet, I64NegativeKeysOverCompressed) {
  EncodedOrderedSet<int64_t, CompressedBitTrie> s(Key{1} << 40);
  std::vector<int64_t> pool;
  Xoshiro256 rng(303);
  for (int i = 0; i < 500; ++i) {
    pool.push_back(static_cast<int64_t>(rng.next()) >> 24);  // ± 2^39
  }
  typed_differential(s, pool, 304);
}

TEST(EncodedSet, U64OverDenseFlatTrie) {
  // Narrow width through the SAME codec: dense inner universe.
  EncodedOrderedSet<uint64_t, LockFreeBinaryTrie> s(Key{1} << 16);
  std::vector<uint64_t> pool;
  Xoshiro256 rng(305);
  for (int i = 0; i < 400; ++i) pool.push_back(rng.next() & 0xFFFF);
  typed_differential(s, pool, 306);
}

TEST(EncodedSet, StringsOverCompressed) {
  EncodedOrderedSet<std::string, CompressedBitTrie> s(
      Key{1} << keys::kMaxEncodedWidth);
  std::vector<std::string> pool;
  Xoshiro256 rng(307);
  for (int i = 0; i < 400; ++i) {
    pool.push_back(random_string(
        rng, KeyCodec<std::string>::max_len(keys::kMaxEncodedWidth)));
  }
  typed_differential(s, pool, 308);
}

TEST(EncodedSet, StringsOverShardedTrie) {
  // 2-byte strings over a sharded dense trie: 2^18 inner universe.
  EncodedOrderedSet<std::string, ShardedTrie> s(Key{1} << 18, 4);
  EXPECT_EQ(s.shard_count(), 4);
  std::vector<std::string> pool;
  Xoshiro256 rng(309);
  for (int i = 0; i < 400; ++i) pool.push_back(random_string(rng, 2));
  typed_differential(s, pool, 310);
}

TEST(EncodedSet, ValidatedScanHonestyPassesThrough) {
  EncodedOrderedSet<uint64_t, CompressedBitTrie> s(Key{1} << 30);
  for (uint64_t k = 0; k < 64; ++k) s.insert(k * 3);
  std::vector<uint64_t> out;
  const ScanResult r = s.range_scan_validated(0, 1000, kNoScanLimit, out);
  EXPECT_TRUE(r.atomic);  // quiescent: must validate first try
  EXPECT_EQ(r.retries, 0u);
  EXPECT_EQ(r.n, 64u);
  EXPECT_EQ(out.size(), 64u);
  EXPECT_EQ(out.front(), 0u);
  EXPECT_EQ(out.back(), 63u * 3);
}

// ---- KeyspaceView: the torture arsenal over encoded keys ----------------

TEST(KeyspaceViewStress, WingGongU64FlatTrie) {
  KeyspaceView<uint64_t, LockFreeBinaryTrie> v(48);
  testutil::StressSpec spec;
  spec.universe = 48;
  spec.threads = 4;
  spec.rounds = 40;
  spec.pred_weight = 25;
  spec.succ_weight = 15;
  spec.scan_weight = 10;
  spec.seed = 401;
  testutil::linearizability_stress(v, spec);
}

TEST(KeyspaceViewStress, WingGongU64ShardedTrie) {
  KeyspaceView<uint64_t, ShardedTrie> v(48, 4);
  EXPECT_EQ(v.shard_count(), 4);
  testutil::StressSpec spec;
  spec.universe = 48;
  spec.threads = 4;
  spec.rounds = 40;
  spec.pred_weight = 25;
  spec.succ_weight = 15;
  spec.scan_weight = 10;
  spec.seed = 402;
  testutil::linearizability_stress(v, spec);
}

TEST(KeyspaceViewStress, WingGongStringFlatTrie) {
  // Ordinals become 1-byte strings; inner universe 2^9. Every stress op
  // round-trips the 9-bit group codec.
  KeyspaceView<std::string, LockFreeBinaryTrie> v(48);
  testutil::StressSpec spec;
  spec.universe = 48;
  spec.threads = 4;
  spec.rounds = 40;
  spec.pred_weight = 25;
  spec.succ_weight = 15;
  spec.scan_weight = 10;
  spec.seed = 403;
  testutil::linearizability_stress(v, spec);
}

TEST(KeyspaceViewStress, WingGongStringShardedTrie) {
  KeyspaceView<std::string, ShardedTrie> v(64, 4);
  testutil::StressSpec spec;
  spec.universe = 64;
  spec.threads = 4;
  spec.rounds = 40;
  spec.pred_weight = 25;
  spec.succ_weight = 15;
  spec.scan_weight = 10;
  spec.seed = 404;
  testutil::linearizability_stress(v, spec);
}

TEST(KeyspaceViewStress, WingGongI64Compressed) {
  // Signed codec (ordinal 0 ↔ the most negative key) under concurrency,
  // over the dynamic-shape trie.
  KeyspaceView<int64_t, CompressedBitTrie> v(64);
  testutil::StressSpec spec;
  spec.universe = 64;
  spec.threads = 4;
  spec.rounds = 40;
  spec.pred_weight = 25;
  spec.succ_weight = 15;
  spec.scan_weight = 10;
  spec.seed = 405;
  testutil::linearizability_stress(v, spec);
}

TEST(KeyspaceView, SequentialDifferentialStringView) {
  KeyspaceView<std::string, LockFreeBinaryTrie> v(1 << 10);
  testutil::sequential_differential(v, 1 << 10, 40000, 406);
  testutil::quiescent_predecessor_exact(v, 1 << 10);
  KeyspaceView<std::string, CompressedBitTrie> c(1 << 10);
  testutil::sequential_differential(c, 1 << 10, 40000, 409);
  KeyspaceView<std::string, LockedStdSet> s(1 << 10);
  testutil::sequential_differential(s, 1 << 10, 40000, 410);
}

TEST(KeyspaceView, SequentialDifferentialU64View) {
  // u64 keys through the codec round trip over each inner structure,
  // checked against std::set on the Key-typed view surface.
  constexpr Key kU = 4096;
  KeyspaceView<uint64_t, LockFreeBinaryTrie> t(kU);
  testutil::sequential_differential(t, kU, 40000, 411);
  testutil::quiescent_predecessor_exact(t, kU);
  KeyspaceView<uint64_t, CompressedBitTrie> c(kU);
  testutil::sequential_differential(c, kU, 40000, 412);
  KeyspaceView<uint64_t, LockedStdSet> s(kU);
  testutil::sequential_differential(s, kU, 40000, 413);
}

TEST(KeyspaceView, HonestyFlagsPassThrough) {
  KeyspaceView<uint64_t, CompressedBitTrie> v(1 << 12);
  v.insert(5);
  v.insert(9);
  EXPECT_TRUE(v.contains(5));
  EXPECT_EQ(v.predecessor(9), 5);
  EXPECT_EQ(v.successor(5), 9);
  std::vector<Key> out;
  const ScanResult r = v.range_scan_validated(0, 100, kNoScanLimit, out);
  EXPECT_TRUE(r.atomic);
  EXPECT_EQ(out, (std::vector<Key>{5, 9}));
  EXPECT_GT(v.memory_reserved(), 0u);
}

TEST(KeyspaceViewSoak, ChurnFootprintFlatU64Compressed) {
  // The reclamation gate through the encoded path: node count — and so
  // live bytes — must reach a steady state under churn.
  KeyspaceView<uint64_t, CompressedBitTrie> v(Key{1} << 12);
  SoakConfig cfg;
  cfg.threads = 2;
  cfg.windows = 5;
  cfg.ops_per_thread_per_window = 20000;
  cfg.universe = Key{1} << 12;
  cfg.mix = kUpdateHeavy;
  cfg.seed = 407;
  const std::vector<SoakWindowSample> samples = churn_soak(v, cfg);
  ASSERT_EQ(samples.size(), 5u);
  // Unlike the dense tries (pooled nodes, no per-structure bytes ⇒ strict
  // soak_tail_is_flat), the compressed trie's live bytes TRACK the key
  // count, which random 50/50 churn walks up and down by a few percent.
  // The reclamation property is therefore: bounded by the live set (no
  // limbo accretion counted as live), and no window-over-window creep
  // beyond that walk.
  const auto& a = samples[samples.size() - 2];
  const auto& b = samples.back();
  EXPECT_LT(b.structure_bytes, (uint64_t{1} << 12) * 128)
      << "footprint not O(live keys)";
  EXPECT_LT(b.structure_bytes, a.structure_bytes + a.structure_bytes / 20)
      << "encoded churn crept: " << a.structure_bytes << " -> "
      << b.structure_bytes;
  EXPECT_LE(b.pool_bytes, a.pool_bytes + 256 * 1024);
}

TEST(KeyspaceView, HarnessIntegrationTraversalMix) {
  // bench_fresh drives make_set/prefill/run_bench — the registration the
  // benches rely on — against the encoded view, traversal ops included.
  BenchConfig cfg;
  cfg.threads = 2;
  cfg.ops_per_thread = 5000;
  cfg.universe = Key{1} << 10;
  cfg.mix = kTraversalMix;
  cfg.seed = 408;
  const BenchResult r =
      bench_fresh<KeyspaceView<uint64_t, CompressedBitTrie>>(cfg);
  EXPECT_EQ(r.total_ops, 10000u);
  EXPECT_GT(r.mops_per_sec, 0.0);
}

}  // namespace
}  // namespace lfbt
