// Churn-soak harness: drives a sustained update-heavy workload against a
// structure in fixed-size windows and samples the memory picture after
// each one — the structure's own footprint (memory_reserved(), where
// the structure reports one) and the process-wide pooled-class
// footprint (reclaim/mem_stats.hpp via Stats::memory()).
//
// The property under test (Reclaim.ChurnSoakSmokeTailIsFlat): with the
// reclaim subsystem in place, churn reaches a STEADY STATE — after a warm-up
// ramp, neither the structure's reserved bytes nor the process pool
// bytes grow from one window to the next, because every retired query
// node, notify node, update node and announcement cell is recycled
// through EBR instead of accreting. Before PR 6 both curves grew without
// bound under exactly this workload.
//
// The harness is deliberately tiny and header-only so every soak test
// (Reclaim.ChurnSoakSmokeTailIsFlat, KeyspaceViewSoak.*) shares one
// definition of "a window" and one flatness predicate.
#pragma once

#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "sync/ebr.hpp"
#include "workload/harness.hpp"

namespace lfbt {

struct SoakWindowSample {
  int window = 0;
  uint64_t ops = 0;               // ops executed in this window
  std::size_t structure_bytes = 0;  // set.memory_reserved() after the window
  std::size_t pool_bytes = 0;       // sum of MemStats bytes_reserved
  // The same bytes by MemClass, and ebr::pending() after the window: a
  // pool tail that grows while retirements pile up in EBR limbo is EBR
  // lag, not a leak.
  std::array<std::size_t, kNumMemClasses> class_bytes{};
  std::size_t ebr_pending = 0;
  double mops_per_sec = 0;
};

struct SoakConfig {
  int threads = 4;
  int windows = 6;
  uint64_t ops_per_thread_per_window = 50000;
  Key universe = Key{1} << 16;
  OpMix mix = kUpdateHeavy;
  uint64_t seed = 7;
  int shards = 0;  // passed through to sharded structures
};

/// Runs `cfg.windows` churn windows against `set`, sampling after each.
/// The same structure instance is reused across windows (that is the
/// point: the steady state must emerge within one instance's lifetime).
template <OrderedSet Set>
std::vector<SoakWindowSample> churn_soak(Set& set, const SoakConfig& cfg) {
  std::vector<SoakWindowSample> samples;
  samples.reserve(static_cast<std::size_t>(cfg.windows));
  // Touch every key once before window 0. Latest-list nodes are
  // per-key RESIDENT state — a completed DEL of an absent key stays
  // first-activated because it encodes the absence — so the pools'
  // steady state includes one update node per universe key ever
  // touched. Random churn alone approaches full coverage with a
  // coupon-collector tail that reads as creep in the window samples;
  // pre-paying it here makes the windows measure per-op reclamation
  // and nothing else.
  for (Key k = 0; k < cfg.universe; ++k) {
    set.insert(k);
    if ((k & 1) != 0) set.erase(k);
  }
  for (int w = 0; w < cfg.windows; ++w) {
    BenchConfig bc;
    bc.threads = cfg.threads;
    bc.ops_per_thread = cfg.ops_per_thread_per_window;
    bc.universe = cfg.universe;
    bc.mix = cfg.mix;
    bc.seed = cfg.seed + static_cast<uint64_t>(w) * 0x9e3779b9ull;
    bc.shards = cfg.shards;
    const BenchResult r = run_bench(set, bc);
    SoakWindowSample s;
    s.window = w;
    s.ops = r.total_ops;
    if constexpr (MemoryReportingOrderedSet<Set>) {
      s.structure_bytes = set.memory_reserved();
    }
    const MemStats::Snapshot mem = Stats::memory();
    s.pool_bytes = mem.total_reserved();
    for (int c = 0; c < kNumMemClasses; ++c) {
      s.class_bytes[c] = mem.cls[c].bytes_reserved;
    }
    s.ebr_pending = ebr::pending();
    s.mops_per_sec = r.mops_per_sec;
    samples.push_back(s);
  }
  return samples;
}

/// The leak-gate predicate: across the FINAL TWO windows the
/// structure bytes did not grow and the pool bytes grew by at most
/// `pool_slack` (default: one pool slab — a window that sets a new
/// in-flight high-water mark may legitimately carve one more slab, and
/// slabs are immortal by design). Earlier windows may ramp. A real
/// per-operation leak is orders of magnitude above the slack: before
/// the reclaim subsystem this workload grew by megabytes per window.
inline bool soak_tail_is_flat(const std::vector<SoakWindowSample>& samples,
                              std::size_t pool_slack = 256 * 1024) {
  if (samples.size() < 2) return true;
  const SoakWindowSample& a = samples[samples.size() - 2];
  const SoakWindowSample& b = samples.back();
  return b.structure_bytes <= a.structure_bytes &&
         b.pool_bytes <= a.pool_bytes + pool_slack;
}

/// One line per window (structure bytes, pool bytes by class, EBR
/// backlog), for a failed flatness check to print as its evidence.
inline std::string describe(const std::vector<SoakWindowSample>& samples) {
  std::ostringstream out;
  for (const SoakWindowSample& s : samples) {
    out << "window " << s.window << ": structure " << s.structure_bytes
        << ", ebr pending " << s.ebr_pending << ", pools " << s.pool_bytes
        << " (";
    for (int c = 0; c < kNumMemClasses; ++c) {
      out << (c == 0 ? "" : ", ") << kMemClassNames[c] << ' '
          << s.class_bytes[c];
    }
    out << ") bytes\n";
  }
  return out.str();
}

}  // namespace lfbt
