// E17: the key-encoding front door — typed keys vs the standard-library
// structures a production team reaches for first.
//
// Subsystem claim (docs/EXPERIMENTS.md): routing real key types
// (uint64_t, std::string) through KeyCodec + KeyspaceView costs little
// enough that the lock-free trie family keeps its concurrency wins over
// `std::set` under a global mutex. Panels, per the TKTRIE2 comparison
// methodology (read-heavy and write-heavy point-op mixes, plus an
// ordered mix):
//
//   point-read / point-write  u64 keys, 2^20 universe: both tries vs the
//                             std baseline, all three through the SAME
//                             codec round trip (locked_map.hpp) so the
//                             comparison is structures, not conversion
//                             overhead;
//   ordered                   predecessor-heavy mix;
//   sparse                    u64 keys, 2^42 universe: only the
//                             compressed trie and std::set can host it
//                             (the dense tries would preallocate 2^42
//                             slots), explicit prefill_keys because a
//                             prefill *fraction* of 2^42 is absurd;
//   string                    6-byte-capped string keys through the
//                             9-bit-group codec, tries vs std::set.
//
// Like E14/E16 this bench SELF-CHECKS: it exits non-zero when
//   - any contender disagrees with a sequential std::set oracle in the
//     pre-timing differential audit (a codec or trie bug, not a perf
//     regression),
//   - a throughput-floored row (point-read enc-u64-trie, sparse
//     enc-u64-compressed, string enc-str-compressed) completes no work,
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
bool audit(Set& set, Key universe, uint64_t ops, const char* what) {
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
      default: {
        auto it = ref.lower_bound(k);
        const Key want = it == ref.begin() ? kNoKey : *std::prev(it);
        if (set.predecessor(k) != want) {
          std::fprintf(stderr, "E17 audit: %s predecessor(%lld) diverged\n",
                       what, static_cast<long long>(k));
          return false;
        }
        break;
      }
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
  EncStrTrie d(u);
  EncStrCompressed e(u);
  EncStrStdSet f(u);
  return audit(a, u, ops, "enc-u64-trie") &&
         audit(b, u, ops, "enc-u64-compressed") &&
         audit(c, u, ops, "enc-u64-std-set") &&
         audit(d, u, ops, "enc-str-trie") &&
         audit(e, u, ops, "enc-str-compressed") &&
         audit(f, u, ops, "enc-str-std-set");
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
      "std::set+mutex");

  if (!audit_all()) {
    std::fprintf(stderr, "E17: differential audit FAILED — not timing a "
                         "structure that disagrees with the oracle\n");
    return 1;
  }
  std::printf("pre-timing differential audit: all 6 contenders agree with "
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
    if (t == top_threads) {
      trie_read = tr;
      stdset_read = sr;
    }

    const BenchConfig write_cfg = panel_config(t, u20, kUpdateHeavy, dense_prefill);
    run_one<EncU64Trie>("point-write", "enc-u64-trie", write_cfg, 20);
    run_one<EncU64Compressed>("point-write", "enc-u64-compressed", write_cfg, 20);
    run_one<EncU64StdSet>("point-write", "enc-u64-std-set", write_cfg, 20);

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

  // --- Verdicts --------------------------------------------------------
  bool ok = all_ran;

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
