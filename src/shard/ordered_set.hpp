// OrderedSet: the repository-wide façade over every dynamic-set-with-
// predecessor structure — the paper's lock-free trie, the relaxed trie,
// the sharded trie, the compressed trie of src/keys/, and the
// `src/baselines/` reference structures.
//
// The concepts constrain the workload harness, tests and benches at
// compile time: a structure that drifts from the common API fails at the
// template boundary with a named requirement, not three levels deep in
// harness internals.
//
// The base concept is the four operations the paper defines plus
// successor, which every structure here provides. Every library
// structure also has the bounded `range_scan(lo, hi, limit, out)` of
// query/range_scan.hpp, which the workload harness calls directly; it
// stays out of the concept because point-op front ends (the benchmark's
// span adapters, fed to serve::BatchBuffer) have no use for it.
// size()/empty() are split into SizedOrderedSet because a lock-free
// structure (the relaxed trie, for one) may not support them without
// adding contention, and validated scans into AtomicScanOrderedSet
// because the relaxed trie cannot validate a window either.
#pragma once

#include <concepts>
#include <cstddef>
#include <vector>

#include "core/types.hpp"
#include "query/range_scan.hpp"

namespace lfbt {

/// A dynamic set over U = {0..u-1} with ordered queries. `predecessor`
/// accepts y in [0, universe()] and returns the largest key < y, or
/// kNoKey; `successor(y)` returns the smallest key > y, or kNoKey (y in
/// [-1, universe())).
template <class S>
concept OrderedSet = requires(S s, Key k) {
  { s.insert(k) };
  { s.erase(k) };
  { s.contains(k) } -> std::convertible_to<bool>;
  { s.predecessor(k) } -> std::convertible_to<Key>;
  { s.successor(k) } -> std::convertible_to<Key>;
};

/// An OrderedSet that additionally reports its cardinality. For concurrent
/// implementations size() may be approximate while updates are in flight;
/// it must be exact at quiescence, and empty() must be a safe (never
/// false-positive-empty) observation.
template <class S>
concept SizedOrderedSet = OrderedSet<S> && requires(const S s) {
  { s.size() } -> std::convertible_to<std::size_t>;
  { s.empty() } -> std::convertible_to<bool>;
};

/// An OrderedSet whose scans additionally come in the validated
/// flavour: `range_scan_validated` returns a ScanResult that reports
/// whether the window observed was a single atomic state (and how many
/// retries it took to get there) — contract in query/range_scan.hpp.
/// Structures that are atomic by construction (locks) always
/// report atomic=true; epoch-validated structures may fall back to the
/// per-step walk after bounded retries and say so with atomic=false.
template <class S>
concept AtomicScanOrderedSet =
    OrderedSet<S> &&
    requires(S s, Key y, std::size_t limit, std::vector<Key>& out) {
      { s.range_scan_validated(y, y, limit, out) } -> std::same_as<ScanResult>;
    };

/// An OrderedSet that reports the bytes it has reserved from the OS
/// itself (the compressed trie's nodes). Process-wide pooled classes —
/// every node of the binary tries — are NOT attributed here: they are
/// shared across instances and reported through Stats::memory()
/// (reclaim/mem_stats.hpp). ShardedTrie's memory_reserved() is a stub
/// that returns 0.
template <class S>
concept MemoryReportingOrderedSet = OrderedSet<S> && requires(const S s) {
  { s.memory_reserved() } -> std::convertible_to<std::size_t>;
};

/// An OrderedSet partitioned over shards, constructible from (universe,
/// shard_count). The shard_count() requirement keeps this from matching
/// unrelated two-argument constructors (e.g. a (universe, seed) one).
template <class S>
concept ShardedOrderedSet =
    OrderedSet<S> && std::constructible_from<S, Key, int> &&
    requires(const S s) {
      { s.shard_count() } -> std::convertible_to<int>;
    };

}  // namespace lfbt
