// E17: the key-encoding front door — typed keys vs the standard-library
// structures a production team reaches for first.
//
// Subsystem claim (docs/EXPERIMENTS.md): routing real key types
// (uint64_t, std::string) through KeyCodec + KeyspaceView costs little
// enough that the lock-free trie family keeps its concurrency wins over
// `std::set` under a global mutex and `std::unordered_set` under a
// readers-writer lock — and the TKTRIE2-style path compression
// (keys/compressed_trie.hpp) beats the uncompressed per-bit layout of
// the same structure on sparse universes. Panels, per the TKTRIE2
// comparison methodology (read-heavy and write-heavy point-op mixes,
// plus the ordered mix only ordered structures can serve):
//
//   point-read / point-write  u64 keys, 2^20 universe: both tries vs
//                             both std baselines, all four through the
//                             SAME codec round trip (locked_map.hpp) so
//                             the comparison is structures, not
//                             conversion overhead;
//   ordered                   predecessor-heavy mix; the hash baseline
//                             is statically refused by run_bench, which
//                             is the point — it has no ordered surface;
//   sparse                    u64 keys, 2^42 universe: only the
//                             compressed trie and std::set can host it
//                             (the dense tries would preallocate 2^42
//                             slots), explicit prefill_keys because a
//                             prefill *fraction* of 2^42 is absurd;
//   string                    6-byte-capped string keys through the
//                             9-bit-group codec, tries vs std::set;
//   skip                      the SAME CompressedBitTrie with path
//                             compression on vs off (per-bit chains),
//                             single-threaded so the measured gap is
//                             pure structure depth, not scheduling.
//
// Like E14/E16 this bench SELF-CHECKS: it exits non-zero when
//   - any contender disagrees with a sequential std::set oracle in the
//     pre-timing differential audit (a codec or trie bug, not a perf
//     regression),
//   - a throughput-floored row (point-read enc-u64-trie, sparse
//     enc-u64-compressed, string enc-str-compressed, skip compressed-on)
//     completes no work,
//   - path compression fails to beat per-bit chains by
//     LFBT_E17_MIN_SKIP_SPEEDUP (default 1.1; single-threaded, so no
//     host degrade is needed),
//   - the compressed trie's read-heavy throughput at the widest
//     measured thread count falls below LFBT_E17_MIN_READ_SPEEDUP x the
//     locked std::set's (default 1.0 on hosts with >= 2 hardware
//     threads — its contains is lock-free, the baseline serialises;
//     degraded to 0.4 on single-hardware-thread hosts, where every
//     structure time-slices one core and lock-freedom buys nothing).
// Rows go to BENCH_E17.json.
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "baselines/locked_map.hpp"
#include "bench_util.hpp"
#include "core/lockfree_trie.hpp"
#include "keys/compressed_trie.hpp"
#include "keys/encoded_set.hpp"
#include "sync/random.hpp"

namespace lfbt {
namespace {

bench::JsonRows g_json;

double env_double(const char* name, double def) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atof(v) : def;
}

using EncU64Trie = keys::KeyspaceView<uint64_t, LockFreeBinaryTrie>;
using EncU64Compressed = keys::KeyspaceView<uint64_t, CompressedBitTrie>;
using EncU64StdSet = keys::KeyspaceView<uint64_t, LockedStdSet>;
using EncU64HashRw = keys::KeyspaceView<uint64_t, SharedMutexHashSet>;
using EncStrTrie = keys::KeyspaceView<std::string, LockFreeBinaryTrie>;
using EncStrCompressed = keys::KeyspaceView<std::string, CompressedBitTrie>;
using EncStrStdSet = keys::KeyspaceView<std::string, LockedStdSet>;

// ---------------------------------------------------------------------
// Pre-timing differential audit: every contender must agree with a
// sequential std::set<Key> oracle through the same Key-typed view
// surface the timed panels drive. A perf number over a wrong structure
// is worse than no number.
// ---------------------------------------------------------------------
template <OrderedSet Set>
bool audit(Set& set, Key universe, uint64_t ops, bool ordered,
           const char* what) {
  Xoshiro256 rng(4242);
  std::set<Key> ref;
  for (uint64_t i = 0; i < ops; ++i) {
    const Key k = static_cast<Key>(rng.bounded(static_cast<uint64_t>(universe)));
    switch (rng.bounded(4)) {
      case 0:
        set.insert(k);
        ref.insert(k);
        break;
      case 1:
        set.erase(k);
        ref.erase(k);
        break;
      case 2:
        if (set.contains(k) != (ref.count(k) != 0)) {
          std::fprintf(stderr, "E17 audit: %s contains(%lld) diverged\n", what,
                       static_cast<long long>(k));
          return false;
        }
        break;
      default:
        if (ordered) {
          auto it = ref.lower_bound(k);
          const Key want = it == ref.begin() ? kNoKey : *std::prev(it);
          if (set.predecessor(k) != want) {
            std::fprintf(stderr, "E17 audit: %s predecessor(%lld) diverged\n",
                         what, static_cast<long long>(k));
            return false;
          }
        } else if (set.contains(k) != (ref.count(k) != 0)) {
          std::fprintf(stderr, "E17 audit: %s contains(%lld) diverged\n", what,
                       static_cast<long long>(k));
          return false;
        }
        break;
    }
  }
  return true;
}

bool audit_all() {
  const Key u = 4096;
  const uint64_t ops = bench::scaled(20000);
  EncU64Trie a(u);
  EncU64Compressed b(u);
  EncU64StdSet c(u);
  EncU64HashRw d(u);
  EncStrTrie e(u);
  EncStrCompressed f(u);
  EncStrStdSet g(u);
  return audit(a, u, ops, true, "enc-u64-trie") &&
         audit(b, u, ops, true, "enc-u64-compressed") &&
         audit(c, u, ops, true, "enc-u64-std-set") &&
         audit(d, u, ops, false, "enc-u64-hash-rw") &&
         audit(e, u, ops, true, "enc-str-trie") &&
         audit(f, u, ops, true, "enc-str-compressed") &&
         audit(g, u, ops, true, "enc-str-std-set");
}

// ---------------------------------------------------------------------
// One timed configuration: construct, prefill, run, report.
// ---------------------------------------------------------------------
BenchConfig panel_config(int threads, Key universe, const OpMix& mix,
                         uint64_t prefill_keys) {
  BenchConfig cfg;
  cfg.threads = threads;
  cfg.ops_per_thread = bench::scaled(120000);
  cfg.universe = universe;
  cfg.mix = mix;
  cfg.prefill_keys = prefill_keys;
  return cfg;
}

template <OrderedSet Set>
double run_one(const char* panel, const char* structure,
               const BenchConfig& cfg, int universe_log2) {
  const BenchResult r = bench_fresh<Set>(cfg);
  bench::row(bench::fmt("| %-11s | %-18s | u=2^%-2d | %d thr | %-14s | %8.3f Mops/s |",
                        panel, structure, universe_log2, cfg.threads,
                        cfg.mix.name().c_str(), r.mops_per_sec));
  g_json.add(bench::fmt(
      "{\"panel\":\"%s\",\"structure\":\"%s\",\"threads\":%d,"
      "\"mix\":\"%s\",\"universe_log2\":%d,\"total_ops\":%llu,"
      "\"elapsed_sec\":%.6f,\"mops_per_sec\":%.4f}",
      panel, structure, cfg.threads, cfg.mix.name().c_str(), universe_log2,
      static_cast<unsigned long long>(r.total_ops), r.elapsed_sec,
      r.mops_per_sec));
  return r.mops_per_sec;
}

}  // namespace
}  // namespace lfbt

int main() {
  using namespace lfbt;
  bench::header(
      "E17: typed keys through the codec front door vs std baselines",
      "encoded u64/string keys keep the trie family's concurrency wins over "
      "std::set+mutex and std::unordered_set+shared_mutex, and path "
      "compression beats per-bit chains on sparse universes");

  if (!audit_all()) {
    std::fprintf(stderr, "E17: differential audit FAILED — not timing a "
                         "structure that disagrees with the oracle\n");
    return 1;
  }
  std::printf("pre-timing differential audit: all 7 contenders agree with "
              "the std::set oracle\n\n");

  // Throughput floor on one row per panel: a row that completed no work
  // measures nothing.
  bool all_ran = true;
  auto floored = [&all_ran](const char* row, double mops) {
    if (!(mops > 0)) {
      std::fprintf(stderr, "E17: %s completed no work\n", row);
      all_ran = false;
    }
    return mops;
  };

  const unsigned hw = std::thread::hardware_concurrency();
  const bool parallel_host = hw >= 2;
  const Key u20 = Key{1} << 20;
  const uint64_t dense_prefill = bench::scaled(100000);
  std::vector<int> sweep;
  for (int t : {1, 2, 4}) {
    if (bench::threads_allowed(t) && static_cast<unsigned>(t) <= (hw > 0 ? hw * 4 : 4)) {
      sweep.push_back(t);
    }
  }
  if (sweep.empty()) sweep.push_back(1);

  // Read-heavy verdict inputs: compressed trie vs locked std::set at
  // the widest measured thread count.
  double trie_read = 0, stdset_read = 0;
  const int top_threads = sweep.back();

  for (int t : sweep) {
    const BenchConfig read_cfg = panel_config(t, u20, kSearchHeavy, dense_prefill);
    floored("point-read enc-u64-trie",
            run_one<EncU64Trie>("point-read", "enc-u64-trie", read_cfg, 20));
    const double tr =
        run_one<EncU64Compressed>("point-read", "enc-u64-compressed", read_cfg, 20);
    const double sr = run_one<EncU64StdSet>("point-read", "enc-u64-std-set", read_cfg, 20);
    run_one<EncU64HashRw>("point-read", "enc-u64-hash-rw", read_cfg, 20);
    if (t == top_threads) {
      trie_read = tr;
      stdset_read = sr;
    }

    const BenchConfig write_cfg = panel_config(t, u20, kUpdateHeavy, dense_prefill);
    run_one<EncU64Trie>("point-write", "enc-u64-trie", write_cfg, 20);
    run_one<EncU64Compressed>("point-write", "enc-u64-compressed", write_cfg, 20);
    run_one<EncU64StdSet>("point-write", "enc-u64-std-set", write_cfg, 20);
    run_one<EncU64HashRw>("point-write", "enc-u64-hash-rw", write_cfg, 20);

    // Ordered panel: the hash baseline is OUT — run_bench would abort on
    // a predecessor mix against it, statically and deliberately.
    const BenchConfig ord_cfg = panel_config(t, u20, kPredHeavy, dense_prefill);
    run_one<EncU64Trie>("ordered", "enc-u64-trie", ord_cfg, 20);
    run_one<EncU64Compressed>("ordered", "enc-u64-compressed", ord_cfg, 20);
    run_one<EncU64StdSet>("ordered", "enc-u64-std-set", ord_cfg, 20);
  }

  // Sparse panel: 2^42 universe. The dense tries CANNOT enter — they
  // would preallocate the whole grid; that asymmetry is the panel's
  // finding, not a gap in it.
  bench::row("|  (sparse panel: dense tries excluded — 2^42 preallocation)  |");
  const Key u42 = Key{1} << 42;
  for (int t : sweep) {
    const BenchConfig sparse_cfg =
        panel_config(t, u42, kBalanced, bench::scaled(100000));
    floored("sparse enc-u64-compressed",
            run_one<EncU64Compressed>("sparse", "enc-u64-compressed",
                                      sparse_cfg, 42));
    run_one<EncU64StdSet>("sparse", "enc-u64-std-set", sparse_cfg, 42);
  }

  // String panel: 2^16 ordinal space -> 2-byte strings -> 2^18 inner
  // universe (9 bits/byte), small enough for the dense trie too.
  const Key u16 = Key{1} << 16;
  for (int t : sweep) {
    const BenchConfig str_cfg = panel_config(t, u16, kBalanced, bench::scaled(20000));
    run_one<EncStrTrie>("string", "enc-str-trie", str_cfg, 16);
    floored("string enc-str-compressed",
            run_one<EncStrCompressed>("string", "enc-str-compressed", str_cfg,
                                      16));
    run_one<EncStrStdSet>("string", "enc-str-std-set", str_cfg, 16);
  }

  // Skip-compression on/off: same structure, same 2^30 universe, same
  // single-threaded balanced mix; compression collapses ~30-deep per-bit
  // chains to ~log2(live keys) internal nodes.
  const Key u30 = Key{1} << 30;
  const BenchConfig skip_cfg = panel_config(1, u30, kBalanced, bench::scaled(60000));
  double skip_on = 0, skip_off = 0;
  {
    CompressedBitTrie on(u30, /*compress_paths=*/true);
    prefill(on, skip_cfg);
    const BenchResult r = run_bench(on, skip_cfg);
    skip_on = floored("skip compressed-on", r.mops_per_sec);
    bench::row(bench::fmt("| %-11s | %-18s | u=2^%-2d | %d thr | %-14s | %8.3f Mops/s |",
                          "skip", "compressed-on", 30, 1,
                          skip_cfg.mix.name().c_str(), r.mops_per_sec));
    g_json.add(bench::fmt(
        "{\"panel\":\"skip\",\"structure\":\"compressed-on\",\"threads\":1,"
        "\"mix\":\"%s\",\"universe_log2\":30,\"total_ops\":%llu,"
        "\"elapsed_sec\":%.6f,\"mops_per_sec\":%.4f}",
        skip_cfg.mix.name().c_str(),
        static_cast<unsigned long long>(r.total_ops), r.elapsed_sec,
        r.mops_per_sec));
  }
  {
    CompressedBitTrie off(u30, /*compress_paths=*/false);
    prefill(off, skip_cfg);
    const BenchResult r = run_bench(off, skip_cfg);
    skip_off = r.mops_per_sec;
    bench::row(bench::fmt("| %-11s | %-18s | u=2^%-2d | %d thr | %-14s | %8.3f Mops/s |",
                          "skip", "compressed-off", 30, 1,
                          skip_cfg.mix.name().c_str(), r.mops_per_sec));
    g_json.add(bench::fmt(
        "{\"panel\":\"skip\",\"structure\":\"compressed-off\",\"threads\":1,"
        "\"mix\":\"%s\",\"universe_log2\":30,\"total_ops\":%llu,"
        "\"elapsed_sec\":%.6f,\"mops_per_sec\":%.4f}",
        skip_cfg.mix.name().c_str(),
        static_cast<unsigned long long>(r.total_ops), r.elapsed_sec,
        r.mops_per_sec));
  }

  // --- Verdicts --------------------------------------------------------
  bool ok = all_ran;

  const double skip_speedup = skip_off > 0 ? skip_on / skip_off : 0;
  const double min_skip = env_double("LFBT_E17_MIN_SKIP_SPEEDUP", 1.1);
  std::printf("\nskip-compression speedup (single-threaded, 2^30 sparse): "
              "%.2fx (floor %.2fx)\n", skip_speedup, min_skip);
  g_json.add(bench::fmt(
      "{\"panel\":\"skip\",\"mode\":\"verdict\",\"threads\":1,"
      "\"hardware_threads\":%u,\"speedup\":%.4f,\"min_speedup\":%.4f}",
      hw, skip_speedup, min_skip));
  if (skip_speedup < min_skip) {
    std::fprintf(stderr, "E17: path compression speedup %.2fx below floor "
                         "%.2fx\n", skip_speedup, min_skip);
    ok = false;
  }

  const double read_speedup = stdset_read > 0 ? trie_read / stdset_read : 0;
  const double min_read = env_double("LFBT_E17_MIN_READ_SPEEDUP",
                                     parallel_host && top_threads > 1 ? 1.0 : 0.4);
  std::printf("read-heavy speedup vs std::set+mutex at %d threads: %.2fx "
              "(floor %.2fx, %u hardware threads)\n",
              top_threads, read_speedup, min_read, hw);
  g_json.add(bench::fmt(
      "{\"panel\":\"point-read\",\"mode\":\"verdict\",\"threads\":%d,"
      "\"hardware_threads\":%u,\"speedup\":%.4f,\"min_speedup\":%.4f}",
      top_threads, hw, read_speedup, min_read));
  if (read_speedup < min_read) {
    std::fprintf(stderr, "E17: read-heavy speedup %.2fx below floor %.2fx\n",
                 read_speedup, min_read);
    ok = false;
  }

  if (!g_json.write("BENCH_E17.json")) ok = false;
  if (!ok) {
    std::fprintf(stderr, "E17: self-check FAILED\n");
    return 1;
  }
  std::printf("E17 self-check passed\n");
  return 0;
}
