// E11: native symmetric successor vs the retired double-write path.
//
// Claim under test: building successor INTO the trie (the SU-ALL /
// directional-notification machinery of core/lockfree_trie.hpp) beats
// synthesising it from a key-mirrored companion view, because the
// companion design paid for every update twice — two full trie updates,
// two arenas — while the native design pays one extra announcement cell
// per insert and two embedded successor queries per delete. The retired
// composite (the old BidiTrie: primary LockFreeBinaryTrie + MirroredTrie,
// primary-first insert / mirror-first erase) is reconstructed here as the
// baseline, since the shipped BidiTrie is now an alias for the native
// trie. Acceptance bar from the PR that introduced this bench: native
// update throughput >= 1.5x the double-write path at 8 threads on the
// write-heavy mix.
//
// Sweeps: structure {native-trie, double-write} x threads {1,2,4,8} x
// mix {update-heavy i50/d50, succ-heavy i20/d20/S60, traversal}. Rows
// are printed as markdown tables and recorded to BENCH_E11.json (same
// record shape as BENCH_E9.json).
#include "bench_util.hpp"
#include "core/lockfree_trie.hpp"
#include "query/mirrored_trie.hpp"
#include "query/range_scan.hpp"

namespace lfbt {
namespace {

/// The retired two-view composite, preserved verbatim as a baseline:
/// every update hits both views (primary-first insert, mirror-first
/// erase), predecessor reads the primary, successor the mirror. Carries
/// the documented two-view caveat — fine for a throughput baseline.
class DoubleWriteTrie {
 public:
  explicit DoubleWriteTrie(Key universe) : primary_(universe), mirror_(universe) {}

  Key universe() const noexcept { return primary_.universe(); }
  bool contains(Key x) { return primary_.contains(x); }
  void insert(Key x) {
    primary_.insert(x);
    mirror_.insert(x);
  }
  void erase(Key x) {
    mirror_.erase(x);
    primary_.erase(x);
  }
  Key predecessor(Key y) { return primary_.predecessor(y); }
  Key successor(Key y) { return mirror_.successor(y); }
  std::size_t range_scan(Key lo, Key hi, std::size_t limit,
                         std::vector<Key>& out) {
    return successor_range_scan(mirror_, lo,
                                hi < universe() ? hi : universe() - 1, limit,
                                out);
  }
  std::size_t size() const noexcept { return primary_.size(); }
  bool empty() const noexcept { return primary_.empty(); }
  std::size_t memory_reserved() const noexcept {
    return primary_.memory_reserved() + mirror_.memory_reserved();
  }

 private:
  LockFreeBinaryTrie primary_;
  MirroredTrie mirror_;
};

static_assert(TraversableOrderedSet<DoubleWriteTrie>);

bench::JsonRows g_json;

template <class Set>
double run_cell(const char* name, const OpMix& mix, int threads,
                uint64_t total_ops, bool latency_panel = false) {
  BenchConfig cfg;
  cfg.universe = Key{1} << 20;
  cfg.prefill_keys = 1 << 15;
  cfg.mix = mix;
  cfg.threads = threads;
  cfg.ops_per_thread = bench::scaled(total_ops) / static_cast<uint64_t>(threads);
  cfg.sample_latency = latency_panel;
  Stats::reset();
  auto res = bench_fresh<Set>(cfg);
  if (latency_panel) {
    bench::row(bench::fmt(
        "| %-12s | %2d | %-22s | %9.3f | %8llu | %8llu | %8llu |", name,
        threads, mix.name().c_str(), res.mops_per_sec,
        static_cast<unsigned long long>(res.latency_pct(0.50)),
        static_cast<unsigned long long>(res.latency_pct(0.95)),
        static_cast<unsigned long long>(res.latency_pct(0.99))));
    g_json.add_latency_result(name, 0, threads, mix, "uniform", res);
  } else {
    bench::row(bench::fmt("| %-12s | %2d | %-22s | %9.3f |", name, threads,
                          mix.name().c_str(), res.mops_per_sec));
    g_json.add_result(name, 0, threads, mix, "uniform", res);
  }
  return res.mops_per_sec;
}

void table_header(const char* title, bool latency_panel = false) {
  bench::row(bench::fmt("### %s", title));
  if (latency_panel) {
    bench::row(
        "| structure    | th | mix                    |  Mops/s   |  p50 ns  "
        "|  p95 ns  |  p99 ns  |");
    bench::row(
        "|--------------|----|------------------------|-----------|----------"
        "|----------|----------|");
  } else {
    bench::row("| structure    | th | mix                    |  Mops/s   |");
    bench::row("|--------------|----|------------------------|-----------|");
  }
}

}  // namespace
}  // namespace lfbt

int main() {
  using namespace lfbt;
  bench::header(
      "E11: native symmetric successor vs the double-write companion view",
      "one trie answering both directions makes every update cheaper than "
      "maintaining a key-mirrored second trie");

  const uint64_t total_ops = 400000;
  double native_at8 = 0.0, dual_at8 = 0.0;

  // The headline table: pure update throughput — exactly the work the
  // double-write path doubles. Sampled per-op latency percentiles ride
  // along (updates are half deletes here).
  table_header("update-heavy (i50/d50), thread sweep, uniform",
               /*latency_panel=*/true);
  for (int threads : {1, 2, 4, 8}) {
    if (!bench::threads_allowed(threads)) continue;
    const double n = run_cell<LockFreeBinaryTrie>(
        "native-trie", kUpdateHeavy, threads, total_ops, /*latency_panel=*/true);
    const double d = run_cell<DoubleWriteTrie>(
        "double-write", kUpdateHeavy, threads, total_ops, /*latency_panel=*/true);
    if (threads == 8) {
      native_at8 = n;
      dual_at8 = d;
    }
  }
  bench::row("");

  // Query-side sanity: successor-heavy traffic, where the two designs
  // read different structures (native SU-ALL helper vs mirrored
  // predecessor helper) but should price the query comparably.
  table_header("successor-heavy (i20/d20/S60), thread sweep, uniform");
  for (int threads : {1, 2, 4, 8}) {
    if (!bench::threads_allowed(threads)) continue;
    run_cell<LockFreeBinaryTrie>("native-trie", kSuccHeavy, threads, total_ops);
    run_cell<DoubleWriteTrie>("double-write", kSuccHeavy, threads, total_ops);
  }
  bench::row("");

  // Full surface: all six op kinds.
  table_header("mixed (i15/d15/s10/p20/S20/r20), thread sweep, uniform");
  for (int threads : {1, 2, 4, 8}) {
    if (!bench::threads_allowed(threads)) continue;
    run_cell<LockFreeBinaryTrie>("native-trie", kTraversalMix, threads, total_ops);
    run_cell<DoubleWriteTrie>("double-write", kTraversalMix, threads, total_ops);
  }
  bench::row("");

  if (native_at8 > 0.0 && dual_at8 > 0.0) {
    bench::row(bench::fmt(
        "native/double-write update-throughput ratio at 8 threads: %.2fx "
        "(acceptance bar: 1.5x)",
        native_at8 / dual_at8));
  }

  return g_json.write("BENCH_E11.json") ? 0 : 1;
}
