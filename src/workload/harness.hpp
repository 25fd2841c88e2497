// Benchmark harness: runs an operation mix against any set type with a
// fixed per-thread operation count, measuring throughput, per-op latency
// percentiles (sampled) and instrumentation counters. Op counts are fixed
// (not time-targeted) so arena-backed structures run in bounded memory.
// Closed loop: each worker issues its next op as soon as the previous
// one returns, either by calling the set directly or through its own
// serve::BatchBuffer (BenchConfig::batch).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/batch.hpp"
#include "serve/pinning.hpp"
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
  // Pin worker t to the t-th CPU of the placement order (serve/pinning.hpp:
  // distinct physical cores first). Best effort: if the platform refuses,
  // the worker runs unpinned.
  bool pin = false;
  // Batch capacity. <= 1 calls the set directly; a larger value routes
  // each worker's ops through its own serve::BatchBuffer of that
  // capacity, range scans submitted as predecessors (the buffer takes
  // point ops only). A sampled op's latency then runs from its submit to
  // the drain that covers it.
  std::size_t batch = 1;
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

inline uint64_t elapsed_ns(std::chrono::steady_clock::time_point from,
                           std::chrono::steady_clock::time_point to) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

/// One worker's ops through its own BatchBuffer. Sampled ops are timed
/// from their submit to the drain that covers them.
template <OrderedSet Set>
void run_batched(serve::BatchBuffer<Set>& buf, OpStream& stream,
                 const BenchConfig& cfg, std::vector<uint64_t>& lat) {
  using Clock = std::chrono::steady_clock;
  std::vector<Clock::time_point> waiting;  // submits of undrained samples
  waiting.reserve(buf.capacity() / cfg.latency_sample_every + 1);
  auto record_drained = [&] {
    const Clock::time_point done = Clock::now();
    for (const Clock::time_point s : waiting) lat.push_back(elapsed_ns(s, done));
    waiting.clear();
  };
  for (uint64_t i = 0; i < cfg.ops_per_thread; ++i) {
    Op op = stream.next();
    if (op.kind == OpKind::kRangeScan) op.kind = OpKind::kPredecessor;
    if (cfg.sample_latency && i % cfg.latency_sample_every == 0) {
      waiting.push_back(Clock::now());
    }
    buf.submit(op);
    if (buf.pending() == 0 && !waiting.empty()) record_drained();
  }
  buf.flush();
  if (!waiting.empty()) record_drained();
}

template <OrderedSet Set>
BenchResult run_bench(Set& set, const BenchConfig& cfg) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  // Padded (E16 false-sharing audit): adjacent std::vector headers are 24
  // bytes, so up to three workers' size/capacity fields — mutated on every
  // sampled push_back — shared one line and bounced it between samplers.
  std::vector<Padded<std::vector<uint64_t>>> lat(cfg.threads);
  std::atomic<uint64_t> sink{0};

  const StepCounts steps_before = Stats::aggregate();

  for (int t = 0; t < cfg.threads; ++t) {
    workers.emplace_back([&, t] {
      if (cfg.pin) serve::pin_self(t);
      auto dist = make_distribution(cfg);
      OpStream stream(cfg.mix, *dist, cfg.seed + 1000003ull * (t + 1),
                      cfg.scan_span, cfg.scan_limit);
      std::optional<serve::BatchBuffer<Set>> buf;
      if (cfg.batch > 1) buf.emplace(set, cfg.batch);
      if (cfg.sample_latency) {
        lat[t]->reserve(cfg.ops_per_thread / cfg.latency_sample_every + 1);
      }
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      uint64_t local_sink = 0;
      if (buf) {
        run_batched(*buf, stream, cfg, *lat[t]);
      } else if (cfg.sample_latency) {
        for (uint64_t i = 0; i < cfg.ops_per_thread; ++i) {
          Op op = stream.next();
          if (i % cfg.latency_sample_every == 0) {
            auto t0 = std::chrono::steady_clock::now();
            local_sink += apply_op(set, op);
            auto t1 = std::chrono::steady_clock::now();
            lat[t]->push_back(elapsed_ns(t0, t1));
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
