// E15: atomic range scans — the epoch-validated snapshot-read claim.
// Subsystem claim (docs/EXPERIMENTS.md): validated scans buy whole-window
// atomicity for a bounded retry cost — under realistic skew the common
// path validates first try (no copying, no locks), retries stay rare and
// fallbacks rarer, and the latency distribution stays close to the plain
// per-step scan's.
//
// Like E14 this bench SELF-CHECKS: it exits non-zero when the
// atomicity AUDIT fails — reader threads log validated scans against a
// single-writer timeline (universe <= 64, whole windows as bitmasks,
// split/merge churn in flight) and every atomic report must match some
// state version alive during the scan. A scan that claims atomic=true
// but reports a window no reachable state ever had is a correctness bug,
// not a slow bench. The audit checks answers, not step counters.
// Rows go to BENCH_E15.json.
#include <atomic>
#include <thread>

#include "bench_util.hpp"
#include "core/lockfree_trie.hpp"
#include "shard/sharded_trie.hpp"
#include "verify/oracle.hpp"

namespace lfbt {
namespace {

bench::JsonRows g_json;

/// E15a: validated-scan throughput/latency across skew, with the
/// atomic/retry/fallback split. kScanAtomicity routes every kRangeScan
/// through the validated path (ShardedTrie::range_scan delegates), so
/// r.steps carries the counter deltas the table reports.
void skew_panel(int threads) {
  bench::header("E15a: validated scans under skew-correlated windows",
                "the common path validates first try; retries track update "
                "pressure on the scanned window, fallbacks stay rare");
  bench::row(
      "| structure  | theta | span |  Mops/s |  p50 ns |  p99 ns | atomic "
      "| retries | fallbacks |");
  bench::row(
      "|------------|-------|------|---------|---------|---------|--------"
      "|---------|-----------|");

  struct Cell {
    double theta;
    Key span;
  };
  const Cell cells[] = {{0.0, 64}, {0.9, 64}, {0.9, 256}};
  for (const Cell& c : cells) {
    BenchConfig cfg;
    cfg.threads = threads;
    cfg.ops_per_thread = bench::scaled(200000);
    cfg.universe = Key{1} << 16;
    cfg.mix = kScanAtomicity;
    cfg.zipf_theta = c.theta;
    cfg.scan_span = c.span;
    cfg.scan_limit = static_cast<uint32_t>(c.span);
    cfg.sample_latency = true;
    cfg.shards = 8;

    auto report = [&](const char* structure, const BenchResult& r) {
      bench::row(bench::fmt(
          "| %-10s | %5.2f | %4lld | %7.3f | %7llu | %7llu | %6llu | %7llu "
          "| %9llu |",
          structure, c.theta, static_cast<long long>(c.span), r.mops_per_sec,
          static_cast<unsigned long long>(r.latency_pct(0.50)),
          static_cast<unsigned long long>(r.latency_pct(0.99)),
          static_cast<unsigned long long>(r.steps.atomic_scans),
          static_cast<unsigned long long>(r.steps.scan_retries),
          static_cast<unsigned long long>(r.steps.scan_fallbacks)));
      g_json.add(bench::fmt(
          "{\"panel\":\"skew\",\"structure\":\"%s\",\"threads\":%d,"
          "\"theta\":%.2f,\"span\":%lld,\"total_ops\":%llu,"
          "\"mops_per_sec\":%.4f,\"p50_ns\":%llu,\"p99_ns\":%llu,"
          "\"scan_ops\":%llu,\"atomic_scans\":%llu,\"scan_retries\":%llu,"
          "\"scan_fallbacks\":%llu}",
          structure, threads, c.theta, static_cast<long long>(c.span),
          static_cast<unsigned long long>(r.total_ops), r.mops_per_sec,
          static_cast<unsigned long long>(r.latency_pct(0.50)),
          static_cast<unsigned long long>(r.latency_pct(0.99)),
          static_cast<unsigned long long>(r.steps.scan_ops),
          static_cast<unsigned long long>(r.steps.atomic_scans),
          static_cast<unsigned long long>(r.steps.scan_retries),
          static_cast<unsigned long long>(r.steps.scan_fallbacks)));
    };

    report("flat-trie", bench_fresh<LockFreeBinaryTrie>(cfg));
    report("sharded", bench_fresh<ShardedTrie>(cfg));
  }
  bench::row("");
}

/// E15c (GATED): the atomicity audit. One writer owns the abstract
/// state timeline; reader threads hammer validated scans (whole windows
/// as bitmasks, universe 48) while a churner splits and re-merges ranges
/// the entire time. Every scan reporting atomic=true must match some
/// state version alive during its interval — on any mismatch the bench
/// exits non-zero. Runs twice: ShardedTrie (multi-entry epoch pairs +
/// migration in flight) and the flat trie (single-epoch validation).
template <class Set>
bool audit_one(const char* structure, Set& set, bool churn) {
  SingleWriterOracle oracle;
  HistoryClock clock;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> churns{0};
  std::thread churner;
  if constexpr (std::is_same_v<Set, ShardedTrie>) {
    if (churn) {
      churner = std::thread([&] {
        while (!stop.load()) {
          if (set.split(0)) churns.fetch_add(1);
          if (set.merge(0)) churns.fetch_add(1);
        }
      });
    }
  }

  constexpr int kReaders = 3;
  std::vector<std::vector<SingleWriterOracle::Query>> logs(kReaders);
  std::vector<uint64_t> fallbacks(kReaders, 0);
  std::vector<std::thread> readers;
  const uint64_t per_reader = bench::scaled(40000);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 rng(900 + static_cast<uint64_t>(r));
      for (uint64_t i = 0; i < per_reader; ++i) {
        const Key lo = static_cast<Key>(rng.bounded(48));
        const Key hi =
            std::min<Key>(lo + 1 + static_cast<Key>(rng.bounded(16)), 47);
        const std::size_t limit = rng.bounded(2) != 0 ? 48 : 6;
        if (!SingleWriterOracle::reader_scan_query(set, lo, hi, limit, clock,
                                                   logs[r])) {
          ++fallbacks[r];
        }
      }
    });
  }
  Xoshiro256 rng(899);
  const uint64_t writes = bench::scaled(120000);
  for (uint64_t i = 0; i < writes; ++i) {
    const Key k = static_cast<Key>(rng.bounded(48));
    oracle.writer_apply(set, rng.bounded(2) ? OpKind::kInsert : OpKind::kErase,
                        k, clock);
  }
  for (auto& th : readers) th.join();
  stop.store(true);
  if (churner.joinable()) churner.join();

  uint64_t atomic_total = 0;
  uint64_t fallback_total = 0;
  bool ok = true;
  for (int r = 0; r < kReaders; ++r) {
    atomic_total += logs[r].size();
    fallback_total += fallbacks[r];
    const std::ptrdiff_t bad = oracle.validate(logs[r]);
    if (bad >= 0) {
      const auto& q = logs[r][static_cast<std::size_t>(bad)];
      std::fprintf(stderr,
                   "E15c AUDIT FAILURE: %s reader %d scan [%lld,%lld] "
                   "limit %u reported mask %llx matching no live state\n",
                   structure, r, static_cast<long long>(q.y),
                   static_cast<long long>(q.hi), q.limit,
                   static_cast<unsigned long long>(q.mask));
      ok = false;
    }
  }
  if (atomic_total == 0) {
    std::fprintf(stderr, "E15c: %s audit recorded no atomic scans at all\n",
                 structure);
    ok = false;
  }
  bench::row(bench::fmt(
      "%-10s: %llu atomic scans audited clean, %llu fallbacks, "
      "%llu reshards in flight%s",
      structure, static_cast<unsigned long long>(atomic_total),
      static_cast<unsigned long long>(fallback_total),
      static_cast<unsigned long long>(churns.load()),
      ok ? "" : "  [VIOLATION]"));
  g_json.add(bench::fmt(
      "{\"panel\":\"audit\",\"structure\":\"%s\",\"atomic_scans\":%llu,"
      "\"fallbacks\":%llu,\"reshards\":%llu,\"ok\":%s}",
      structure, static_cast<unsigned long long>(atomic_total),
      static_cast<unsigned long long>(fallback_total),
      static_cast<unsigned long long>(churns.load()), ok ? "true" : "false"));
  return ok;
}

bool audit_panel() {
  bench::header("E15c: single-writer atomicity audit (gated)",
                "every atomic=true window must equal some live state's "
                "lowest keys — checked against the exact writer timeline, "
                "with split/merge churn in flight on the sharded run");
  ShardedTrie sharded(48, 3);
  bool ok = audit_one("sharded", sharded, /*churn=*/true);
  LockFreeBinaryTrie flat(64);
  ok = audit_one("flat-trie", flat, /*churn=*/false) && ok;
  bench::row("");
  return ok;
}

}  // namespace
}  // namespace lfbt

int main() {
  using namespace lfbt;
  int threads = 4;
  if (!bench::threads_allowed(threads)) threads = bench::max_threads();
  if (threads <= 0) threads = 1;

  skew_panel(threads);
  const bool ok = audit_panel();

  if (!g_json.write("BENCH_E15.json")) return 1;
  return ok ? 0 : 1;
}
