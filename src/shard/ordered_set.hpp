// OrderedSet: the repository-wide façade over every dynamic-set-with-
// predecessor structure — the paper's lock-free trie, the relaxed trie,
// the sharded trie, the compressed trie of src/keys/, and the
// `src/baselines/` reference and comparison structures.
//
// Two layers:
//  * the `OrderedSet` / `SizedOrderedSet` concepts, used to constrain the
//    workload harness, tests and benches at compile time (a structure that
//    drifts from the common API now fails at the template boundary with a
//    named requirement, not three levels deep in harness internals);
//  * `AnyOrderedSet`, a non-owning type-erased adapter for call sites that
//    pick the structure at runtime (workbench-style tools) and for tests
//    that drive heterogeneous structures through one code path.
//
// The concept is deliberately minimal — exactly the four operations the
// paper defines plus the universe accessor every implementation already
// has. size()/empty() are split into SizedOrderedSet because a lock-free
// structure (the relaxed trie, for one) may not support them without
// adding contention, and
// the ordered-traversal surface (successor / range_scan, contract in
// query/range_scan.hpp) is split into TraversableOrderedSet so partial-
// surface structures still model the base concept. Since the core trie
// gained its native symmetric successor, every shipped structure —
// including LockFreeBinaryTrie itself — models the traversal refinement;
// the split survives for exactly the reason it was introduced: the
// facade must not force a surface onto structures (present or future)
// that cannot support it.
#pragma once

#include <cassert>
#include <concepts>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <vector>

#include "core/types.hpp"
#include "query/range_scan.hpp"

namespace lfbt {

/// A dynamic set over U = {0..u-1} with predecessor queries. `predecessor`
/// accepts y in [0, universe()] and returns the largest key < y, or kNoKey.
template <class S>
concept OrderedSet = requires(S s, Key k) {
  { s.insert(k) };
  { s.erase(k) };
  { s.contains(k) } -> std::convertible_to<bool>;
  { s.predecessor(k) } -> std::convertible_to<Key>;
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

/// An OrderedSet with the full ordered-traversal surface of src/query/:
/// `successor(y)` (smallest key > y, or kNoKey; y in [-1, universe()))
/// and the bounded ascending `range_scan(lo, hi, limit, out)` whose
/// contract — ordering, limit semantics, weak consistency under
/// concurrent updates — is documented in query/range_scan.hpp.
template <class S>
concept TraversableOrderedSet =
    OrderedSet<S> &&
    requires(S s, Key y, std::size_t limit, std::vector<Key>& out) {
      { s.successor(y) } -> std::convertible_to<Key>;
      { s.range_scan(y, y, limit, out) } -> std::convertible_to<std::size_t>;
    };

/// A TraversableOrderedSet whose scans additionally come in the validated
/// flavour: `range_scan_validated` returns a ScanResult that reports
/// whether the window observed was a single atomic state (and how many
/// retries it took to get there) — contract in query/range_scan.hpp.
/// Structures that are atomic by construction (locks, snapshots) always
/// report atomic=true; epoch-validated structures may fall back to the
/// per-step walk after bounded retries and say so with atomic=false.
template <class S>
concept AtomicScanOrderedSet =
    TraversableOrderedSet<S> &&
    requires(S s, Key y, std::size_t limit, std::vector<Key>& out) {
      { s.range_scan_validated(y, y, limit, out) } -> std::same_as<ScanResult>;
    };

/// An OrderedSet that reports the bytes it has reserved from the OS
/// (arena + any structure-owned slabs). Process-wide pooled classes are
/// NOT attributed here — they are shared across instances and reported
/// through Stats::memory() (reclaim/mem_stats.hpp); the soak harness
/// (workload/soak.hpp) watches both gauges.
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

/// Non-owning type-erased view of any OrderedSet. The referenced structure
/// must outlive the view. Copyable views share the underlying structure.
///
/// Traversal (successor/range_scan) is erased too, so AnyOrderedSet
/// itself models TraversableOrderedSet. Whether the calls actually work
/// depends on the wrapped structure: query supports_traversal() first
/// when the structure is picked at runtime. On a non-traversable wrappee
/// successor returns kNoKey and range_scan returns 0 (asserting in debug
/// builds) — a documented safe no-op, never undefined behaviour.
class AnyOrderedSet {
 public:
  template <OrderedSet S>
    requires(!std::same_as<std::remove_cvref_t<S>, AnyOrderedSet>)
  explicit AnyOrderedSet(S& s) : impl_(std::make_shared<Model<S>>(&s)) {}

  void insert(Key x) { impl_->insert(x); }
  void erase(Key x) { impl_->erase(x); }
  bool contains(Key x) { return impl_->contains(x); }
  Key predecessor(Key y) { return impl_->predecessor(y); }
  Key successor(Key y) { return impl_->successor(y); }
  std::size_t range_scan(Key lo, Key hi, std::size_t limit,
                         std::vector<Key>& out) {
    return impl_->range_scan(lo, hi, limit, out);
  }
  /// Validated scan (contract in query/range_scan.hpp). On a wrappee that
  /// is traversable but has no validated surface this degrades to the
  /// per-step walk and honestly reports atomic=false; query
  /// supports_atomic_scan() to distinguish "fell back this time" from
  /// "can never validate".
  ScanResult range_scan_validated(Key lo, Key hi, std::size_t limit,
                                  std::vector<Key>& out,
                                  uint32_t max_retries = kDefaultScanRetries) {
    return impl_->range_scan_validated(lo, hi, limit, out, max_retries);
  }

  /// True iff the wrapped structure models TraversableOrderedSet.
  bool supports_traversal() const { return impl_->supports_traversal(); }
  /// True iff the wrapped structure models AtomicScanOrderedSet.
  bool supports_atomic_scan() const { return impl_->supports_atomic_scan(); }

  /// Structure-owned reserved bytes (see MemoryReportingOrderedSet); 0
  /// when the wrapped structure does not report memory. Pair with
  /// Stats::memory() for the pooled-class picture.
  std::size_t memory_reserved() const { return impl_->memory_reserved(); }
  bool reports_memory() const { return impl_->reports_memory(); }

 private:
  struct Iface {
    virtual ~Iface() = default;
    virtual void insert(Key) = 0;
    virtual void erase(Key) = 0;
    virtual bool contains(Key) = 0;
    virtual Key predecessor(Key) = 0;
    virtual Key successor(Key) = 0;
    virtual std::size_t range_scan(Key, Key, std::size_t,
                                   std::vector<Key>&) = 0;
    virtual ScanResult range_scan_validated(Key, Key, std::size_t,
                                            std::vector<Key>&, uint32_t) = 0;
    virtual bool supports_traversal() const = 0;
    virtual bool supports_atomic_scan() const = 0;
    virtual std::size_t memory_reserved() const = 0;
    virtual bool reports_memory() const = 0;
  };

  template <class S>
  struct Model final : Iface {
    explicit Model(S* s) : set(s) {}
    void insert(Key x) override { set->insert(x); }
    void erase(Key x) override { set->erase(x); }
    bool contains(Key x) override { return set->contains(x); }
    Key predecessor(Key y) override { return set->predecessor(y); }
    Key successor(Key y) override {
      if constexpr (TraversableOrderedSet<S>) {
        return set->successor(y);
      } else {
        assert(!"successor() on a non-traversable structure");
        (void)y;
        return kNoKey;
      }
    }
    std::size_t range_scan(Key lo, Key hi, std::size_t limit,
                           std::vector<Key>& out) override {
      if constexpr (TraversableOrderedSet<S>) {
        return set->range_scan(lo, hi, limit, out);
      } else {
        assert(!"range_scan() on a non-traversable structure");
        (void)lo, (void)hi, (void)limit, (void)out;
        return 0;
      }
    }
    ScanResult range_scan_validated(Key lo, Key hi, std::size_t limit,
                                    std::vector<Key>& out,
                                    uint32_t max_retries) override {
      if constexpr (AtomicScanOrderedSet<S>) {
        return set->range_scan_validated(lo, hi, limit, out, max_retries);
      } else if constexpr (TraversableOrderedSet<S>) {
        // Per-step fallback: correct keys-seen-once semantics, but no
        // atomicity claim.
        (void)max_retries;
        ScanResult r;
        r.n = set->range_scan(lo, hi, limit, out);
        return r;
      } else {
        assert(!"range_scan_validated() on a non-traversable structure");
        (void)lo, (void)hi, (void)limit, (void)out, (void)max_retries;
        return {};
      }
    }
    bool supports_traversal() const override {
      return TraversableOrderedSet<S>;
    }
    bool supports_atomic_scan() const override {
      return AtomicScanOrderedSet<S>;
    }
    std::size_t memory_reserved() const override {
      if constexpr (MemoryReportingOrderedSet<S>) {
        return set->memory_reserved();
      } else {
        return 0;
      }
    }
    bool reports_memory() const override {
      return MemoryReportingOrderedSet<S>;
    }
    S* set;
  };

  std::shared_ptr<Iface> impl_;
};

static_assert(OrderedSet<AnyOrderedSet>,
              "the type-erased adapter must model the concept it erases");
static_assert(TraversableOrderedSet<AnyOrderedSet>,
              "the adapter erases the traversal surface as well");
static_assert(AtomicScanOrderedSet<AnyOrderedSet>,
              "the adapter erases the validated-scan surface as well");

}  // namespace lfbt
