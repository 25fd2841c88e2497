// E16: the serve-at-scale front door — batching, pinning, and an
// open-loop SLO panel.
// Subsystem claim (docs/EXPERIMENTS.md): funnelling point ops through a
// per-thread BatchBuffer (serve/batch.hpp) beats direct per-op calls at
// peak ingest throughput — one EBR guard per drain plus same-key
// coalescing removes a large slice of the per-update announcement-list
// work under skewed write traffic — and the open-loop sojourn tail
// (scheduled arrival -> result, serve/open_loop.hpp) stays bounded at
// offered rates below the measured peak.
//
// Like E14 this bench SELF-CHECKS: it exits non-zero when
//   - batched peak < LFBT_E16_MIN_SPEEDUP x direct peak (default 1.2 on
//     hosts with >= 2 hardware threads; degraded to 1.05 on single-
//     hardware-thread hosts, where the run time-slices one core and the
//     remaining win is coalescing + guard amortisation alone),
//   - the batched peak panel recorded no flushes or coalesced at most 1%
//     of its updates, or
//   - any measured panel is degenerate (nothing completed, or a sojourn
//     percentile curve collapsed/inverted — see OpenLoopResult).
// Rows go to BENCH_E16.json.
#include <algorithm>
#include <thread>

#include "bench_util.hpp"
#include "serve/open_loop.hpp"
#include "shard/sharded_trie.hpp"

namespace lfbt {
namespace {

bench::JsonRows g_json;

double env_double(const char* name, double def) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atof(v) : def;
}

/// The serving workload: a hot-range write storm (all updates land in a
/// 256-key window of a 2^20 universe — flash-crowd ingest), the shape
/// where a batched front door earns its keep: a 256-op batch draws ~160
/// distinct keys from the window, so the coalescing pass retires ~35% of
/// the updates before they pay their announcement-list splices.
BenchConfig service_config(int threads) {
  BenchConfig cfg;
  cfg.threads = threads;
  cfg.ops_per_thread = bench::scaled(300000);
  cfg.universe = Key{1} << 20;
  cfg.mix = kUpdateHeavy;
  cfg.cluster_width = 256;
  cfg.shards = 8;
  return cfg;
}

serve::OpenLoopConfig loop_config(const BenchConfig& cfg, std::size_t batch,
                                  double rate, bool pin) {
  serve::OpenLoopConfig lc;
  lc.rate_ops_s = rate;
  lc.threads = cfg.threads;
  lc.ops_per_thread = cfg.ops_per_thread;
  lc.batch = batch;
  lc.pin = pin;
  return lc;
}

/// One fresh-structure measurement (prefill included) of `cfg` traffic
/// through a batch of `batch` (1 = direct) at `rate` ops/s (0 = uncapped:
/// generators run flat out and the result is path saturation).
serve::OpenLoopResult measure(const BenchConfig& cfg, std::size_t batch,
                              double rate, bool pin) {
  ShardedTrie set(cfg.universe, cfg.shards);
  prefill(set, cfg);
  return serve::run_open_loop(set, cfg, loop_config(cfg, batch, rate, pin));
}

void json_panel_row(const char* panel, const char* mode, const BenchConfig& cfg,
                    std::size_t batch, const serve::OpenLoopResult& r) {
  g_json.add(bench::fmt(
      "{\"panel\":\"%s\",\"mode\":\"%s\",\"threads\":%d,\"batch\":%zu,"
      "\"offered_mops\":%.4f,\"achieved_mops\":%.4f,\"total_ops\":%llu,"
      "\"sojourn_p50_ns\":%llu,\"sojourn_p95_ns\":%llu,"
      "\"sojourn_p99_ns\":%llu,\"flushes\":%llu,\"coalesced\":%llu}",
      panel, mode, cfg.threads, batch, r.offered_mops, r.achieved_mops,
      static_cast<unsigned long long>(r.total_ops),
      static_cast<unsigned long long>(r.sojourn_pct(0.50)),
      static_cast<unsigned long long>(r.sojourn_pct(0.95)),
      static_cast<unsigned long long>(r.sojourn_pct(0.99)),
      static_cast<unsigned long long>(r.batch_flushes),
      static_cast<unsigned long long>(r.batch_coalesced)));
}

/// Panel 1 (gated): peak ingest, direct vs batched, same generator and
/// structure geometry. Returns the measured peaks through `direct_peak` /
/// `batched_peak` for the rate sweep to anchor on.
bool peak_panel(const BenchConfig& cfg, bool pin, double& direct_peak,
                double& batched_peak) {
  bench::header("E16a: peak ingest — batched front door vs direct calls",
                "one EBR guard per drain + same-key coalescing beat per-op "
                "calls on a hot-range write storm");
  bench::row("| mode    | batch |  Mops/s | drains | ops/drain | coalesced |");
  bench::row("|---------|-------|---------|--------|-----------|-----------|");

  const serve::OpenLoopResult direct = measure(cfg, 1, 0.0, pin);
  bench::row(bench::fmt("| direct  | %5d | %7.3f | %6s | %9s | %9s |", 1,
                        direct.achieved_mops, "-", "-", "-"));
  json_panel_row("peak", "direct", cfg, 1, direct);

  const std::size_t batch = serve::kDefaultBatch;
  const serve::OpenLoopResult batched = measure(cfg, batch, 0.0, pin);
  const double ops_per_drain =
      batched.batch_flushes == 0
          ? 0.0
          : double(batched.total_ops) / double(batched.batch_flushes);
  const double coalesce_pct =
      batched.total_ops == 0
          ? 0.0
          : 100.0 * double(batched.batch_coalesced) / double(batched.total_ops);
  bench::row(bench::fmt("| batched | %5zu | %7.3f | %6llu | %9.1f | %8.1f%% |",
                        batch, batched.achieved_mops,
                        static_cast<unsigned long long>(batched.batch_flushes),
                        ops_per_drain, coalesce_pct));
  json_panel_row("peak", "batched", cfg, batch, batched);

  direct_peak = direct.achieved_mops;
  batched_peak = batched.achieved_mops;

  // Floor: 1.2x on hosts that can run generators in parallel; a single
  // hardware thread time-slices everything, leaving only the coalescing
  // + guard savings, so the floor degrades rather than asserting
  // parallel-host numbers the machine cannot produce.
  const unsigned hw = std::thread::hardware_concurrency();
  const bool parallel_host = hw >= 2;
  const double min_speedup =
      env_double("LFBT_E16_MIN_SPEEDUP", parallel_host ? 1.2 : 1.05);
  if (!parallel_host) {
    bench::row(bench::fmt(
        "single hardware thread: speedup floor degraded to %.2fx "
        "(coalescing + guard amortisation only)",
        min_speedup));
  }
  const double speedup =
      direct.achieved_mops > 0 ? batched.achieved_mops / direct.achieved_mops : 0;
  bench::row(bench::fmt("batched/direct speedup: %.2fx (floor %.2fx)",
                        speedup, min_speedup));
  bench::row("");
  g_json.add(bench::fmt(
      "{\"panel\":\"peak\",\"mode\":\"verdict\",\"threads\":%d,"
      "\"hardware_threads\":%u,\"speedup\":%.4f,\"min_speedup\":%.4f,"
      "\"coalesced_pct\":%.2f}",
      cfg.threads, hw, speedup, min_speedup, coalesce_pct));

  bool ok = true;
  if (speedup < min_speedup) {
    std::fprintf(stderr, "E16a: batched speedup %.2fx below floor %.2fx\n",
                 speedup, min_speedup);
    ok = false;
  }
  for (const auto* r : {&direct, &batched}) {
    if (r->degenerate()) {
      std::fprintf(stderr, "E16a: degenerate peak panel\n");
      ok = false;
    }
  }
  // The batched path must really drain and coalesce: a storm over a
  // 256-key window that coalesces nothing measures a broken front door.
  if (batched.batch_flushes == 0) {
    std::fprintf(stderr, "E16a: batched peak panel recorded no flushes\n");
    ok = false;
  }
  if (!(coalesce_pct > 1.0)) {
    std::fprintf(stderr, "E16a: %.2f%% of updates coalesced (floor > 1%%)\n",
                 coalesce_pct);
    ok = false;
  }
  return ok;
}

/// Panel 2 (degeneracy-gated, numbers reported): open-loop sojourn tails
/// at offered rates below the batched peak, batched and direct. The
/// batched rows price the queueing cost of batching honestly (an op
/// waits for its drain or the linger valve); the claim is bounded tails
/// below saturation, not better latency than direct.
bool rate_sweep_panel(const BenchConfig& base, bool pin, double batched_peak) {
  bench::header("E16b: open-loop SLO — sojourn tails vs offered rate",
                "Poisson arrivals at fractions of the measured batched peak; "
                "sojourn = scheduled arrival -> result published");
  bench::row(
      "| mode    | offered Mops/s | achieved |  p50 us |  p95 us |  p99 us |");
  bench::row(
      "|---------|----------------|----------|---------|---------|---------|");

  BenchConfig cfg = base;
  // The sweep holds a rate rather than saturating; fewer ops per point
  // keep the wall-clock bounded at the low-rate points.
  cfg.ops_per_thread = std::max<uint64_t>(base.ops_per_thread / 4, 1);

  bool ok = true;
  for (const double frac : {0.25, 0.60}) {
    const double rate = batched_peak * 1e6 * frac;
    if (rate <= 0) continue;
    for (const bool batched : {false, true}) {
      const std::size_t batch = batched ? serve::kDefaultBatch : 1;
      const serve::OpenLoopResult r = measure(cfg, batch, rate, pin);
      bench::row(bench::fmt(
          "| %-7s | %14.3f | %8.3f | %7.1f | %7.1f | %7.1f |",
          batched ? "batched" : "direct", r.offered_mops, r.achieved_mops,
          r.sojourn_pct(0.50) / 1e3, r.sojourn_pct(0.95) / 1e3,
          r.sojourn_pct(0.99) / 1e3));
      json_panel_row("rate-sweep", batched ? "batched" : "direct", cfg, batch,
                     r);
      if (r.degenerate()) {
        std::fprintf(stderr,
                     "E16b: degenerate sweep panel (%s at %.3f Mops/s)\n",
                     batched ? "batched" : "direct", r.offered_mops);
        ok = false;
      }
    }
  }
  bench::row("");
  return ok;
}

}  // namespace
}  // namespace lfbt

int main() {
  using namespace lfbt;
  int threads = 4;
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0 && threads > static_cast<int>(hw)) threads = static_cast<int>(hw);
  if (!bench::threads_allowed(threads)) threads = bench::max_threads();
  if (threads <= 0) threads = 1;

  const BenchConfig cfg = service_config(threads);
  // Pin when the topology offers a distinct CPU per generator; on smaller
  // hosts pinning just serialises the time-slice order, so leave the
  // scheduler free.
  const bool pin =
      serve::topology().cpus.size() >= static_cast<std::size_t>(threads);

  double direct_peak = 0;
  double batched_peak = 0;
  bool ok = peak_panel(cfg, pin, direct_peak, batched_peak);
  ok = rate_sweep_panel(cfg, pin, batched_peak) && ok;

  if (!g_json.write("BENCH_E16.json")) return 1;
  return ok ? 0 : 1;
}
