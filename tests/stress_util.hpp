// Windowed linearizability stress harness.
//
// Rounds of concurrent operation bursts separated by barriers. Because
// every op completes within its round, the recorded history decomposes at
// round boundaries; each round is checked with the Wing–Gong checker,
// seeded with the exact quiescent state observed before the round and
// closed with quiescent observations appended as sequential contains ops
// (which pins the final state and catches lost updates).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "sync/random.hpp"
#include "verify/linearizability.hpp"

namespace lfbt::testutil {

struct StressSpec {
  Key universe = 16;      // <= 64
  int threads = 4;
  int ops_per_round = 12;  // per thread; keep windows checkable
  int rounds = 60;
  int pred_weight = 30;    // percent of ops that are predecessor queries
  int contains_weight = 20;
  // Percent of ops that are successor queries. Every shipped structure's
  // successor reads the same abstract state as contains/updates — the
  // core trie's successor is native and symmetric since the successor
  // position machinery landed (core/lockfree_trie.hpp) — so mixed pred+succ
  // histories are sound to check everywhere, including the same-key
  // update races the retired two-view composites could not linearize.
  int succ_weight = 0;
  // Percent of ops that are whole-window range scans, recorded through
  // recorded_scan: only ATOMIC scans enter the history (as single-point
  // multi-key observations the checker admits via bitmask_scan);
  // fallback walks are dropped. Requires the structure to expose
  // range_scan_validated — the weight is ignored otherwise.
  int scan_weight = 0;
  Key scan_span = 6;  // window width; anchored at a random key
  uint64_t seed = 1;
};

/// Runs the windowed Wing–Gong stress against `set`.
template <class Set>
void linearizability_stress(Set& set, const StressSpec& spec) {
  ASSERT_LE(spec.universe, 64);
  uint64_t state = 0;
  for (Key k = 0; k < spec.universe; ++k) {
    if (set.contains(k)) state |= uint64_t{1} << k;
  }
  for (int round = 0; round < spec.rounds; ++round) {
    HistoryClock clock;
    std::vector<std::vector<RecordedOp>> per_thread(spec.threads);
    std::vector<std::thread> ts;
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    for (int t = 0; t < spec.threads; ++t) {
      ts.emplace_back([&, t] {
        Xoshiro256 rng(spec.seed * 7919 + static_cast<uint64_t>(round) * 131 +
                       static_cast<uint64_t>(t));
        ready.fetch_add(1);
        while (!go.load()) std::this_thread::yield();
        for (int i = 0; i < spec.ops_per_round; ++i) {
          Key k = static_cast<Key>(rng.bounded(static_cast<uint64_t>(spec.universe)));
          int roll = static_cast<int>(rng.bounded(100));
          OpKind kind;
          if (roll < spec.pred_weight) {
            kind = OpKind::kPredecessor;
            k = k + 1;  // query point in [1, u]
          } else if (roll < spec.pred_weight + spec.succ_weight) {
            kind = OpKind::kSuccessor;
            k = k - 1;  // query point in [-1, u-1)
          } else if (roll < spec.pred_weight + spec.succ_weight +
                                spec.scan_weight) {
            if constexpr (requires(std::vector<Key>& o) {
                            set.range_scan_validated(k, k, std::size_t{1}, o);
                          }) {
              const Key hi =
                  std::min<Key>(k + spec.scan_span - 1, spec.universe - 1);
              // Half the scans are capped below the window width so the
              // checker's limit semantics get exercised too.
              const std::size_t limit =
                  rng.bounded(2) != 0
                      ? static_cast<std::size_t>(spec.universe)
                      : static_cast<std::size_t>(
                            1 + rng.bounded(
                                    static_cast<uint64_t>(spec.scan_span)));
              recorded_scan(set, k, hi, limit, clock, per_thread[t]);
            }
            continue;
          } else if (roll < spec.pred_weight + spec.succ_weight +
                                spec.scan_weight + spec.contains_weight) {
            kind = OpKind::kContains;
          } else {
            kind = rng.bounded(2) ? OpKind::kInsert : OpKind::kErase;
          }
          recorded_apply(set, kind, k, clock, per_thread[t]);
        }
      });
    }
    while (ready.load() != spec.threads) std::this_thread::yield();
    go = true;
    for (auto& th : ts) th.join();

    std::vector<RecordedOp> history;
    for (int t = 0; t < spec.threads; ++t) {
      for (RecordedOp& op : per_thread[t]) op.thread = t;
      history.insert(history.end(), per_thread[t].begin(), per_thread[t].end());
    }
    // Quiescent observation: pins the post-round state.
    uint64_t observed = 0;
    for (Key k = 0; k < spec.universe; ++k) {
      recorded_apply(set, OpKind::kContains, k, clock, history);
      if (history.back().ret) observed |= uint64_t{1} << k;
    }
    ASSERT_TRUE(LinearizabilityChecker::check(history, state))
        << "round " << round << " not linearizable (seed " << spec.seed
        << "); history:\n"
        << describe(history);
    state = observed;
  }
}

}  // namespace lfbt::testutil
