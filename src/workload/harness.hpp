// Benchmark harness: runs an operation mix against any set type with a
// fixed per-thread operation count, measuring throughput, per-op latency
// percentiles (sampled) and instrumentation counters. Op counts are fixed
// (not time-targeted) so a run's work, and its memory, is fixed up front.
// Closed loop: each worker calls the set directly and issues its next op
// as soon as the previous one returns. It drives the soak tests
// (workload/soak.hpp) and examples/workbench; the benchmark of record is
// stackbench/, which has its own driver.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "shard/ordered_set.hpp"
#include "sync/cacheline.hpp"
#include "sync/stats.hpp"
#include "workload/workload.hpp"

namespace lfbt {

struct BenchConfig {
  int threads = 4;
  uint64_t ops_per_thread = 100000;
  Key universe = Key{1} << 20;
  OpMix mix = kBalanced;
  double zipf_theta = 0.0;     // 0 => uniform
  Key cluster_width = 0;     // >0 => clustered overrides zipf
  uint64_t prefill_keys = 0;  // explicit count; 0 => derive (see prefill())
  uint64_t seed = 42;
  bool sample_latency = false;
  int latency_sample_every = 64;
  // Shape of kRangeScan ops (see OpStream): window width and per-scan
  // report cap. Ignored by mixes with range_pct == 0.
  Key scan_span = 64;
  uint32_t scan_limit = 64;
  // Shard count for partitioned structures (ShardedOrderedSet, e.g.
  // ShardedTrie). 0 keeps the structure's default; ignored by
  // non-sharded structures.
  int shards = 0;
};

struct BenchResult {
  uint64_t total_ops = 0;
  double elapsed_sec = 0;
  double mops_per_sec = 0;
  StepCounts steps;  // delta over the run (trie-instrumented structures)
  // Sampled op latencies in nanoseconds, sorted (empty unless requested).
  std::vector<uint64_t> latencies_ns;

  uint64_t latency_pct(double p) const {
    if (latencies_ns.empty()) return 0;
    auto idx = static_cast<std::size_t>(p * double(latencies_ns.size() - 1));
    return latencies_ns[idx];
  }
};

inline std::unique_ptr<KeyDistribution> make_distribution(const BenchConfig& cfg) {
  if (cfg.cluster_width > 0) {
    return std::make_unique<ClusteredDist>(cfg.universe, cfg.cluster_width);
  }
  if (cfg.zipf_theta > 0.0) {
    return std::make_unique<ZipfDist>(cfg.universe, cfg.zipf_theta);
  }
  return std::make_unique<UniformDist>(cfg.universe);
}

/// Constructs a set for `cfg`: partitioned structures (ShardedOrderedSet)
/// receive cfg.shards when it is set; everything else is built from the
/// universe alone.
template <OrderedSet Set>
std::unique_ptr<Set> make_set(const BenchConfig& cfg) {
  if constexpr (ShardedOrderedSet<Set>) {
    if (cfg.shards > 0) return std::make_unique<Set>(cfg.universe, cfg.shards);
  }
  return std::make_unique<Set>(cfg.universe);
}

/// Loads the set with `prefill_keys` random keys (or half the op-touched
/// key mass when unset) so that measurements start from a realistic size.
template <OrderedSet Set>
void prefill(Set& set, const BenchConfig& cfg) {
  uint64_t n = cfg.prefill_keys;
  if (n == 0) {
    const uint64_t touched =
        cfg.cluster_width > 0 ? static_cast<uint64_t>(cfg.cluster_width)
                              : static_cast<uint64_t>(cfg.universe);
    n = touched / 2;
    const uint64_t cap = cfg.ops_per_thread * static_cast<uint64_t>(cfg.threads);
    if (n > cap) n = cap;  // don't spend longer prefilling than measuring
  }
  auto dist = make_distribution(cfg);
  Xoshiro256 rng(cfg.seed ^ 0xabcdef);
  for (uint64_t i = 0; i < n; ++i) set.insert(dist->sample(rng));
}

template <OrderedSet Set>
BenchResult run_bench(Set& set, const BenchConfig& cfg) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  // Padded (E16 false-sharing audit, recorded in docs/EXPERIMENTS.md):
  // adjacent std::vector headers are 24 bytes, so up to three workers'
  // size/capacity fields — mutated on every sampled push_back — shared
  // one line and bounced it between samplers.
  std::vector<Padded<std::vector<uint64_t>>> lat(cfg.threads);
  std::atomic<uint64_t> sink{0};

  const StepCounts steps_before = Stats::aggregate();

  for (int t = 0; t < cfg.threads; ++t) {
    workers.emplace_back([&, t] {
      auto dist = make_distribution(cfg);
      OpStream stream(cfg.mix, *dist, cfg.seed + 1000003ull * (t + 1),
                      cfg.scan_span, cfg.scan_limit);
      if (cfg.sample_latency) {
        lat[t]->reserve(cfg.ops_per_thread / cfg.latency_sample_every + 1);
      }
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      uint64_t local_sink = 0;
      if (cfg.sample_latency) {
        for (uint64_t i = 0; i < cfg.ops_per_thread; ++i) {
          Op op = stream.next();
          if (i % cfg.latency_sample_every == 0) {
            auto t0 = std::chrono::steady_clock::now();
            local_sink += apply_op(set, op);
            auto t1 = std::chrono::steady_clock::now();
            lat[t]->push_back(static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                    .count()));
          } else {
            local_sink += apply_op(set, op);
          }
        }
      } else {
        for (uint64_t i = 0; i < cfg.ops_per_thread; ++i) {
          local_sink += apply_op(set, stream.next());
        }
      }
      sink.fetch_add(local_sink);
    });
  }

  while (ready.load() != cfg.threads) std::this_thread::yield();
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  const auto end = std::chrono::steady_clock::now();

  BenchResult res;
  res.total_ops = cfg.ops_per_thread * static_cast<uint64_t>(cfg.threads);
  res.elapsed_sec = std::chrono::duration<double>(end - start).count();
  res.mops_per_sec = double(res.total_ops) / res.elapsed_sec / 1e6;
  res.steps = Stats::aggregate() - steps_before;
  for (auto& v : lat) {
    res.latencies_ns.insert(res.latencies_ns.end(), v->begin(), v->end());
  }
  std::sort(res.latencies_ns.begin(), res.latencies_ns.end());
  if (sink.load() == 0xdeadbeef) std::fprintf(stderr, "sink\n");  // keep work
  return res;
}

/// Convenience: construct-a-set, prefill, run. Set must be constructible
/// from (Key universe); partitioned structures additionally honour
/// cfg.shards (see make_set).
template <OrderedSet Set>
BenchResult bench_fresh(const BenchConfig& cfg) {
  auto set = make_set<Set>(cfg);
  prefill(*set, cfg);
  return run_bench(*set, cfg);
}

}  // namespace lfbt
