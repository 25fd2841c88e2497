// Workbench: run an ad-hoc workload against any shipped structure from
// the command line.
//
//   workbench [--mem-stats] [structure] [threads] [ops_per_thread]
//             [log2_universe] [insert%] [erase%] [contains%] [pred%]
//             [zipf_theta] [shards] [succ%] [scan%] [scan_span]
//
//   --mem-stats: append the reclamation picture after the run — one row
//                per pooled memory class (reclaim/mem_stats.hpp) with
//                reserved bytes, live objects and the recycle rate.
//
//   structure: lockfree-trie | sharded-trie | relaxed-trie | compressed |
//              enc-u64-trie | enc-u64-compressed | enc-str-trie
//
// The enc-* structures run the workload through the key-encoding layer
// (src/keys/): every op converts its dense key to a typed key
// (uint64_t or std::string), encodes it back through KeyCodec, and
// drives the named inner structure — the full codec round trip under
// whatever mix you dial in. `compressed` is the raw path-compressed
// trie (keys/compressed_trie.hpp).
//
// The six percentages must sum to 100; every structure serves all six op
// kinds.
//
// Examples:
//   workbench lockfree-trie 8 100000 16 50 50 0 0
//   workbench lockfree-trie 4 200000 16 20 20 0 0 0 0 30 30 64
//   workbench sharded-trie 8 100000 20 50 50 0 0 0 16
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/lockfree_trie.hpp"
#include "keys/compressed_trie.hpp"
#include "keys/encoded_set.hpp"
#include "reclaim/mem_stats.hpp"
#include "relaxed/relaxed_trie.hpp"
#include "shard/sharded_trie.hpp"
#include "workload/harness.hpp"

namespace {

bool g_mem_stats = false;

void print_mem_stats() {
  const lfbt::MemStats::Snapshot snap = lfbt::Stats::memory();
  std::printf("\nmemory classes (process-wide pools, reclaim/mem_stats.hpp):\n");
  std::printf("  %-12s %12s %12s %12s %9s %9s\n", "class", "reserved KiB",
              "acquired", "in_use", "released", "recycle");
  for (int i = 0; i < lfbt::kNumMemClasses; ++i) {
    const auto& c = snap.cls[i];
    const double recycle =
        c.acquired == 0 ? 0.0 : 100.0 * double(c.recycled) / double(c.acquired);
    std::printf("  %-12s %12.1f %12llu %12llu %9llu %8.1f%%\n",
                lfbt::kMemClassNames[i], double(c.bytes_reserved) / 1024.0,
                static_cast<unsigned long long>(c.acquired),
                static_cast<unsigned long long>(c.in_use()),
                static_cast<unsigned long long>(c.released), recycle);
  }
  std::printf("  total reserved   : %.1f KiB\n",
              double(snap.total_reserved()) / 1024.0);
}

template <class Set>
int run(const lfbt::BenchConfig& cfg, const char* name) {
  lfbt::Stats::reset();
  auto res = lfbt::bench_fresh<Set>(cfg);
  std::printf("structure        : %s\n", name);
  std::printf("threads          : %d\n", cfg.threads);
  std::printf("universe         : %ld\n", static_cast<long>(cfg.universe));
  std::printf("mix              : %s\n", cfg.mix.name().c_str());
  std::printf("zipf theta       : %.2f\n", cfg.zipf_theta);
  std::printf("total ops        : %lu\n", static_cast<unsigned long>(res.total_ops));
  std::printf("elapsed          : %.3f s\n", res.elapsed_sec);
  std::printf("throughput       : %.3f Mops/s\n", res.mops_per_sec);
  if (res.steps.scan_ops > 0) {
    std::printf("range scans      : %lu (%.2f keys/scan, span %ld)\n",
                static_cast<unsigned long>(res.steps.scan_ops),
                double(res.steps.scan_keys) / double(res.steps.scan_ops),
                static_cast<long>(cfg.scan_span));
  }
  if (res.steps.total() > 0) {
    std::printf("reads/op         : %.2f\n",
                double(res.steps.reads) / double(res.total_ops));
    std::printf("cas/op           : %.2f\n",
                double(res.steps.cas_attempts) / double(res.total_ops));
    std::printf("cas success rate : %.1f%%\n",
                100.0 * double(res.steps.cas_successes) /
                    double(res.steps.cas_attempts ? res.steps.cas_attempts : 1));
    std::printf("minwrites/op     : %.3f\n",
                double(res.steps.min_writes) / double(res.total_ops));
  }
  if (g_mem_stats) print_mem_stats();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lfbt;
  // Strip flags out of argv so the positional parse below stays simple;
  // flags may appear anywhere.
  int n = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--mem-stats") == 0) {
      g_mem_stats = true;
    } else {
      argv[n++] = argv[i];
    }
  }
  argc = n;
  std::string structure = argc > 1 ? argv[1] : "lockfree-trie";
  BenchConfig cfg;
  cfg.threads = argc > 2 ? std::atoi(argv[2]) : 4;
  cfg.ops_per_thread = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 100000;
  cfg.universe = Key{1} << (argc > 4 ? std::atoi(argv[4]) : 16);
  cfg.mix.insert_pct = argc > 5 ? std::atoi(argv[5]) : 25;
  cfg.mix.erase_pct = argc > 6 ? std::atoi(argv[6]) : 25;
  cfg.mix.contains_pct = argc > 7 ? std::atoi(argv[7]) : 25;
  cfg.mix.predecessor_pct = argc > 8 ? std::atoi(argv[8]) : 25;
  cfg.zipf_theta = argc > 9 ? std::atof(argv[9]) : 0.0;
  cfg.shards = argc > 10 ? std::atoi(argv[10]) : 0;
  cfg.mix.successor_pct = argc > 11 ? std::atoi(argv[11]) : 0;
  cfg.mix.range_pct = argc > 12 ? std::atoi(argv[12]) : 0;
  cfg.scan_span = argc > 13 ? std::atoi(argv[13]) : 64;
  cfg.scan_limit = static_cast<uint32_t>(cfg.scan_span);
  if (cfg.mix.sum() != 100) {
    std::fprintf(stderr, "op mix must sum to 100 (got %d)\n", cfg.mix.sum());
    return 2;
  }

  if (structure == "lockfree-trie") return run<LockFreeBinaryTrie>(cfg, "lockfree-trie");
  if (structure == "sharded-trie") return run<ShardedTrie>(cfg, "sharded-trie");
  if (structure == "relaxed-trie") return run<RelaxedBinaryTrie>(cfg, "relaxed-trie");
  if (structure == "compressed") return run<CompressedBitTrie>(cfg, "compressed");
  if (structure == "enc-u64-trie") {
    return run<keys::KeyspaceView<uint64_t, LockFreeBinaryTrie>>(
        cfg, "enc-u64-trie");
  }
  if (structure == "enc-u64-compressed") {
    return run<keys::KeyspaceView<uint64_t, CompressedBitTrie>>(
        cfg, "enc-u64-compressed");
  }
  if (structure == "enc-str-trie") {
    return run<keys::KeyspaceView<std::string, LockFreeBinaryTrie>>(
        cfg, "enc-str-trie");
  }
  std::fprintf(stderr,
               "unknown structure '%s' (try: lockfree-trie sharded-trie "
               "relaxed-trie compressed enc-u64-trie "
               "enc-u64-compressed enc-str-trie)\n",
               structure.c_str());
  return 2;
}
