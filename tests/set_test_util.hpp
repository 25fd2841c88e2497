// Shared helpers for testing any set implementing the common concept
// (insert/erase/contains/predecessor over Key).
#pragma once

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "core/types.hpp"
#include "sync/random.hpp"

namespace lfbt::testutil {

inline Key ref_predecessor(const std::set<Key>& s, Key y) {
  auto it = s.lower_bound(y);
  return it == s.begin() ? kNoKey : *std::prev(it);
}

inline Key ref_successor(const std::set<Key>& s, Key y) {
  auto it = s.upper_bound(y);
  return it == s.end() ? kNoKey : *it;
}

/// Randomized sequential differential test against std::set.
template <class Set>
void sequential_differential(Set& set, Key universe, int ops, uint64_t seed) {
  std::set<Key> ref;
  Xoshiro256 rng(seed);
  for (int i = 0; i < ops; ++i) {
    Key k = static_cast<Key>(rng.bounded(static_cast<uint64_t>(universe)));
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
        ASSERT_EQ(set.contains(k), ref.count(k) > 0) << "i=" << i << " k=" << k;
        break;
      default:
        ASSERT_EQ(set.predecessor(k + 1), ref_predecessor(ref, k + 1))
            << "i=" << i << " y=" << k + 1;
    }
  }
}

/// Concurrent: each thread owns a disjoint key range and runs a
/// deterministic update stream; the final contents must equal a sequential
/// replay. Catches lost updates and cross-key interference.
template <class Set>
void disjoint_range_determinism(Set& set, int threads, Key range_per_thread,
                                int ops_per_thread, uint64_t seed) {
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      Xoshiro256 rng(seed + static_cast<uint64_t>(t));
      for (int i = 0; i < ops_per_thread; ++i) {
        Key k = t * range_per_thread +
                static_cast<Key>(rng.bounded(static_cast<uint64_t>(range_per_thread)));
        if (rng.bounded(2)) {
          set.insert(k);
        } else {
          set.erase(k);
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  for (int t = 0; t < threads; ++t) {
    std::set<Key> ref;
    Xoshiro256 rng(seed + static_cast<uint64_t>(t));
    for (int i = 0; i < ops_per_thread; ++i) {
      Key k = t * range_per_thread +
              static_cast<Key>(rng.bounded(static_cast<uint64_t>(range_per_thread)));
      if (rng.bounded(2)) {
        ref.insert(k);
      } else {
        ref.erase(k);
      }
    }
    for (Key k = t * range_per_thread; k < (t + 1) * range_per_thread; ++k) {
      ASSERT_EQ(set.contains(k), ref.count(k) > 0) << "thread " << t << " key " << k;
    }
  }
}

/// After any concurrent phase and once quiescent, predecessor must be
/// exact for every query point.
template <class Set>
void quiescent_predecessor_exact(Set& set, Key universe) {
  std::set<Key> contents;
  for (Key k = 0; k < universe; ++k) {
    if (set.contains(k)) contents.insert(k);
  }
  for (Key y = 0; y <= universe; ++y) {
    ASSERT_EQ(set.predecessor(y), ref_predecessor(contents, y)) << "y=" << y;
  }
}

/// Full-contention hammer on a small universe: checks sanity of every
/// predecessor result (range) and absence of crashes/hangs; correctness
/// under contention is covered by the linearizability tests.
template <class Set>
void contention_hammer(Set& set, Key universe, int threads, int ops_per_thread,
                       uint64_t seed) {
  std::atomic<bool> bad{false};
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      Xoshiro256 rng(seed + static_cast<uint64_t>(t));
      for (int i = 0; i < ops_per_thread && !bad.load(); ++i) {
        Key k = static_cast<Key>(rng.bounded(static_cast<uint64_t>(universe)));
        switch (rng.bounded(4)) {
          case 0:
            set.insert(k);
            break;
          case 1:
            set.erase(k);
            break;
          case 2:
            (void)set.contains(k);
            break;
          default: {
            Key p = set.predecessor(k + 1);
            if (p < kNoKey || p > k) bad = true;
          }
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  ASSERT_FALSE(bad.load()) << "predecessor returned an out-of-range value";
}

}  // namespace lfbt::testutil
