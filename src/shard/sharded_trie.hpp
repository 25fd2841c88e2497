// ShardedTrie: horizontal partitioning of the paper's lock-free binary
// trie, with ONLINE RESHARDING. The universe U = {0..u-1} is split into
// contiguous ranges, each backed by a fully independent
// LockFreeBinaryTrie — its own NodeArena, its own U-ALL/RU-ALL/P-ALL
// announcement lists — so shards share no contended cache lines
// and each shard's O(log u) update paths shrink to O(log width).
//
// Construction partitions U into S fixed-width ranges. A hot range can
// be split while readers and writers run (split()/maybe_split()), and
// the two halves of a split can be merged back (merge()). Routing is a
// versioned range map (shard/range_map.hpp): an immutable table
// snapshot published by pointer store and retired through EBR, consulted
// under an ebr::Guard by every operation. The data plane stays
// lock-free; the control plane runs one reshard at a time under a mutex
// and blocks in EBR grace waits — geometry changes are rare and never on
// the op path.
//
// Linearizability, in brief (full arguments: docs/DESIGN.md "Dynamic
// resharding" and "Atomic scans"):
//   - contains/insert/erase touch one shard and inherit the inner op's
//     linearization point; ranges own disjoint keys, so histories
//     compose by locality. Mid-migration, the migration word routes a
//     key to src or dst by the watermark; the ≤ kBatch keys of an
//     announced copy window belong to the migrator alone (announce, then
//     one grace wait), so updates there back off and re-route, and
//     contains reads src then dst — exact, because a move inserts into
//     dst before it erases from src.
//   - predecessor/successor walk ranges away from y, record each range's
//     insert epoch (bumped after the inner insert returns), linearize at
//     the first range that yields a key, and retry if any range passed
//     over saw a completed insert. A mid-migration range is read as the
//     src∪dst union, src first, retried until both shards' insert AND
//     delete epochs are unchanged across the pair-read.
//   - range_scan_validated records every touched entry's (ins, del)
//     epoch pairs (both shards of a migrating one) before probing it and
//     re-reads them all at the end: unchanged means the scan is atomic.
//     Migration moves bump no epoch, so a split or merge in flight never
//     forces a retry by itself.
//   - Each attempt runs under one guard, so a migration cannot start
//     unobserved mid-walk, and the control plane waits one grace period
//     after publishing a table before it clears the ctl or starts the
//     next migration: a guard overlaps at most one republish.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

#include "core/lockfree_trie.hpp"
#include "shard/range_map.hpp"
#include "sync/backoff.hpp"
#include "sync/ebr.hpp"

namespace lfbt {

class ShardedTrie {
 public:
  static constexpr int kDefaultShards = 8;
  /// Hard cap on concurrent ranges, matched to NodeArena's per-thread
  /// cursor capacity (kSlotsPerThread = 64; one arena per shard).
  /// Construction requests above the cap are clamped (width grows);
  /// split() fails once the routing table is full.
  static constexpr int kMaxShards = reshard::RangeTable::kMaxRanges;

  /// Test hook called by the migrator between batches (never inside a
  /// copy window) with the next window's first key. Blocking or yielding
  /// in it freezes or slows a migration mid-flight; it cannot abandon
  /// one. It runs under the control mutex, so it must not reshard.
  using SplitPacer = std::function<void(Key next_window_lo)>;

  /// maybe_split() trigger: at least min_ops routed since the last
  /// policy check, with the hottest range drawing at least `imbalance`
  /// times its fair share (total / ranges) of them. A single range is
  /// its own hot spot: only min_ops gates the first split.
  struct SplitPolicy {
    uint64_t min_ops = uint64_t{1} << 14;
    double imbalance = 2.0;
  };

  explicit ShardedTrie(Key universe, int shards = kDefaultShards)
      : u_(universe),
        width_((universe + static_cast<Key>(clamped(shards)) - 1) /
               static_cast<Key>(clamped(shards))) {
    assert(universe >= 1 && shards >= 1);
    auto* t = new reshard::RangeTable;
    t->n = static_cast<int>((universe + width_ - 1) / width_);
    t->fixed_width = width_;
    for (int s = 0; s < t->n; ++s) {
      const Key base = static_cast<Key>(s) * width_;
      t->lo[s] = base;
      t->shard[s] = new reshard::Shard(base, std::min(width_, u_ - base));
    }
    t->lo[t->n] = u_;
    table_.store(t, std::memory_order_release);
  }

  /// Requires quiescence, like any container destructor. Snapshots,
  /// ctls and merge victims retired earlier are freed by EBR on their
  /// own schedule; the current table's shards are torn down here.
  ~ShardedTrie() {
    const auto* t = table_.load(std::memory_order_relaxed);
    for (int i = 0; i < t->n; ++i) delete t->shard[i];
    delete t;
  }

  ShardedTrie(const ShardedTrie&) = delete;
  ShardedTrie& operator=(const ShardedTrie&) = delete;

  Key universe() const noexcept { return u_; }
  /// Number of ranges in the current routing table.
  int shard_count() const {
    ebr::Guard g;
    return table_.load()->n;
  }
  /// Construction-time range width (the pre-split geometry).
  Key shard_width() const noexcept { return width_; }
  /// Current routing-table index of x's range.
  int shard_of(Key x) const {
    assert(x >= 0 && x < u_);
    ebr::Guard g;
    return table_.load()->find(x);
  }
  /// [lo, hi) bounds of range i in the current table.
  std::pair<Key, Key> range_bounds(int i) const {
    ebr::Guard g;
    const auto* t = table_.load();
    assert(i >= 0 && i < t->n);
    return {t->lo[i], t->lo[i + 1]};
  }
  /// Number of published geometry changes (splits + merges) so far.
  uint64_t reshard_count() const { return reshard_seq_.load(); }
  /// True while some migration is started but not yet finished.
  bool resharding_in_flight() const {
    ebr::Guard g;
    const auto* t = table_.load();
    for (int i = 0; i < t->n; ++i) {
      if (t->shard[i]->ctl.load() != nullptr) return true;
    }
    return false;
  }

  /// O(1) (plus one union probe while its range is mid-migration).
  bool contains(Key x) {
    assert(x >= 0 && x < u_);
    ebr::Guard g;
    const auto* t = table_.load();
    reshard::Shard* s = t->shard[t->find(x)];
    const reshard::SplitCtl* c = s->ctl.load();
    if (reshard::Shard* o = route(s, c, x)) {
      return o->trie->contains(x - o->base);
    }
    // Copy window: union read, src BEFORE dst (a key the migrator moves
    // between the probes enters dst before it leaves src).
    return s->trie->contains(x - s->base) ||
           c->dst->trie->contains(x - c->dst->base);
  }

  /// Routed by the table and migration watermark; bumps the owning
  /// shard's insert (resp. delete) epoch after the inner op returns — the
  /// validation handshake and the load observer's input. Backs off
  /// outside its guard while the key sits in an announced copy window.
  void insert(Key x) { update<true>(x); }
  void erase(Key x) { update<false>(x); }

  /// Largest key < y, or kNoKey; y in [0, universe()]. Epoch-validated
  /// downward walk across ranges.
  Key predecessor(Key y) {
    assert(y >= 0 && y <= u_);
    return y <= 0 ? kNoKey : walk<false>(y);
  }

  /// Smallest key > y, or kNoKey; y in [-1, universe()). The mirror
  /// image of predecessor.
  Key successor(Key y) {
    assert(y >= -1 && y < u_);
    return y >= u_ - 1 ? kNoKey : walk<true>(y);
  }

  /// Ascending keys of S ∩ [lo, hi], at most `limit`, appended to `out`;
  /// returns the number appended. The validated scan below, which keeps
  /// a weak-contract per-step walk once its retries run out.
  std::size_t range_scan(Key lo, Key hi, std::size_t limit,
                         std::vector<Key>& out) {
    return range_scan_validated(lo, hi, limit, out).n;
  }

  /// Epoch-validated cross-range scan: walks ranges upward with the O(1)
  /// empty-shard skip, merge-walking src and dst of a mid-migration
  /// range, all under one guard per attempt. atomic == true iff the kept
  /// walk validated.
  ScanResult range_scan_validated(Key lo, Key hi, std::size_t limit,
                                  std::vector<Key>& out,
                                  uint32_t max_retries = kDefaultScanRetries) {
    assert(lo >= 0 && lo < u_ && hi >= lo);
    if (hi >= u_) hi = u_ - 1;
    return retry_validated_scan(out, max_retries, [&](std::size_t& n) {
      ebr::Guard g;
      const auto* t = table_.load();
      EpochObs obs[reshard::RangeTable::kMaxRanges];
      int nobs = 0;
      for (int i = t->find(lo); i < t->n && n < limit; ++i) {
        const Key elo = t->lo[i];
        const Key ehi = t->lo[i + 1];
        if (elo > hi) break;
        reshard::Shard* s = t->shard[i];
        const reshard::SplitCtl* c = s->ctl.load();
        reshard::Shard* d =
            (c != nullptr && c->move_lo < ehi) ? c->dst : nullptr;
        // Record the entry's epoch pair(s) BEFORE its first probe — also
        // for entries the empty-skip never probes: an insert landing
        // behind the skip must still fail validation.
        obs[nobs++].record(s, d);
        if (d == nullptr && s->trie->empty()) continue;
        const Key dlo = d != nullptr ? std::max(elo, c->move_lo) : elo;
        Key cursor = std::max(lo, elo) - 1;  // report keys > cursor
        while (n < limit) {
          const Key r = probe<true>(*s, d, dlo, elo, ehi, cursor);
          if (r == kNoKey || r > hi) break;
          out.push_back(r);
          ++n;
          cursor = r;
        }
      }
      for (int k = 0; k < nobs; ++k) {
        if (!obs[k].unchanged(/*with_del=*/true)) return false;
      }
      return true;
    });
  }

  /// Sum of per-range sizes (plus in-flight split targets); approximate
  /// under concurrency, exact at quiescence, never an undercount (each
  /// addend is conservative, and a mid-move key counts at most twice).
  std::size_t size() const {
    std::size_t n = 0;
    for_each_trie([&](const LockFreeBinaryTrie& tr) { n += tr.size(); });
    return n;
  }
  bool empty() const { return size() == 0; }

  /// Arena bytes across every live shard, including an unpublished split
  /// target and a merge victim that is still draining.
  std::size_t memory_reserved() const {
    std::size_t n = 0;
    for_each_trie(
        [&](const LockFreeBinaryTrie& tr) { n += tr.memory_reserved(); });
    return n;
  }

  // ---- control plane ---------------------------------------------------
  // One reshard at a time: split(), merge() and maybe_split() hold ctl_mu_
  // for the whole migration, grace waits included; the data plane never
  // takes it.

  /// Splits range `i` of the current table at its midpoint, migrating
  /// the top half to a fresh shard, and publishes the new geometry.
  /// Returns false, changing nothing, if the range cannot split (bad
  /// index, width 1, or the table is full). Waits for any reshard
  /// already running.
  bool split(int i, const SplitPacer& pacer = {}) {
    std::lock_guard<std::mutex> lk(ctl_mu_);
    return split_locked(i, pacer);
  }

  /// Merges range `i+1` back into range `i`, draining the right shard
  /// and retiring it. Merges only undo splits: the left shard's trie
  /// must already span both ranges, as it does for the two halves of an
  /// earlier split. Anything else — construction-time neighbours, or a
  /// split's right half with the range to its right — is refused
  /// (returns false, changing nothing).
  bool merge(int i, const SplitPacer& pacer = {}) {
    std::lock_guard<std::mutex> lk(ctl_mu_);
    const auto* t = table_.load(std::memory_order_relaxed);
    if (i < 0 || i + 1 >= t->n) return false;
    reshard::Shard* l = t->shard[i];
    const Key hi = t->lo[i + 2];
    if (hi - l->base > l->trie->universe()) return false;
    migrate(new reshard::SplitCtl{t->lo[i + 1], hi, t->shard[i + 1], l,
                                  /*merge=*/true},
            pacer);
    return true;
  }

  /// Load-observer policy hook: if a policy window has elapsed
  /// (pol.min_ops routed since the last check) and some range is hot
  /// (see SplitPolicy), split it and return its index; otherwise return
  /// -1. Call it from wherever fits the deployment — a maintenance
  /// thread, every Nth op, the bench harness.
  int maybe_split() { return maybe_split(SplitPolicy{}); }
  int maybe_split(const SplitPolicy& pol) {
    std::lock_guard<std::mutex> lk(ctl_mu_);
    const auto* t = table_.load(std::memory_order_relaxed);
    uint64_t total = 0;
    uint64_t best = 0;
    uint64_t now[reshard::RangeTable::kMaxRanges];
    int besti = -1;
    for (int i = 0; i < t->n; ++i) {
      now[i] = t->shard[i]->load();
      const uint64_t delta = now[i] - t->shard[i]->load_snap;
      total += delta;
      if (delta > best) {
        best = delta;
        besti = i;
      }
    }
    if (total < pol.min_ops) return -1;
    // Window consumed: reset the per-shard snapshots either way.
    for (int i = 0; i < t->n; ++i) t->shard[i]->load_snap = now[i];
    const double fair = static_cast<double>(total) / t->n;
    const bool hot =
        t->n == 1 || static_cast<double>(best) >= pol.imbalance * fair;
    return besti >= 0 && hot && split_locked(besti, {}) ? besti : -1;
  }

 private:
  static int clamped(int shards) {
    return shards < 1 ? 1 : (shards > kMaxShards ? kMaxShards : shards);
  }

  // ---- data plane -----------------------------------------------------

  /// The shard that owns x under s's migration c — s itself, or c's dst
  /// below the watermark — or nullptr inside an announced copy window.
  static reshard::Shard* route(reshard::Shard* s, const reshard::SplitCtl* c,
                               Key x) {
    if (c == nullptr || x < c->move_lo) return s;
    const uint64_t w = c->word.load();
    const Key wm = reshard::mig_watermark(w);
    if (x < wm) return c->dst;
    const bool in_window =
        reshard::mig_copy(w) &&
        x < std::min<Key>(wm + reshard::SplitCtl::kBatch, c->move_hi);
    return in_window ? nullptr : s;
  }

  template <bool IsInsert>
  void update(Key x) {
    assert(x >= 0 && x < u_);
    Backoff bo;
    for (;;) {
      {
        ebr::Guard g;
        const auto* t = table_.load();
        reshard::Shard* s = t->shard[t->find(x)];
        if (reshard::Shard* o = route(s, s->ctl.load(), x)) {
          if constexpr (IsInsert) {
            o->trie->insert(x - o->base);
            o->ins_epoch.value.fetch_add(1);
          } else {
            o->trie->erase(x - o->base);
            o->del_epoch.value.fetch_add(1);
          }
          return;
        }
      }
      // Guard dropped: the migrator's grace wait (and hence the window
      // settle that will unblock us) can proceed.
      bo();
    }
  }

  /// Cross-range predecessor (Upward=false) or successor walk from y's
  /// owner, with epoch validation — see the header comment.
  template <bool Upward>
  Key walk(Key y) {
    constexpr int kStep = Upward ? 1 : -1;
    for (;;) {
      ebr::Guard g;
      const auto* t = table_.load();
      const int s0 = t->find(Upward ? y + 1 : y - 1);
      const int end = Upward ? t->n : -1;
      EpochObs obs[reshard::RangeTable::kMaxRanges];
      Key ans = kNoKey;
      int i = s0;
      for (; i != end; i += kStep) {
        ans = observe<Upward>(t, i, y, obs[i]);
        if (ans != kNoKey) break;
      }
      // The walk linearizes at its last observation (the answering
      // range, or the final one); unchanged insert epochs pin "no key
      // past y appeared" in every range walked before it.
      const int last = i == end ? i - kStep : i;
      bool valid = true;
      for (int k = s0; k != last && valid; k += kStep) {
        valid = obs[k].unchanged(/*with_del=*/false);
      }
      if (valid) return ans;
    }
  }

  /// Largest present key of shard `s` within [rlo, rhi) ∩ [0, y), global
  /// coordinates, or kNoKey. Clamps the probe to the routed range.
  static Key range_pred(const reshard::Shard& s, Key rlo, Key rhi, Key y) {
    const Key top = std::min(rhi, y);  // exclusive upper bound
    if (top <= rlo) return kNoKey;
    const Key ylocal = std::min(top - s.base, s.trie->universe());
    if (ylocal <= 0) return kNoKey;
    const Key r = s.trie->predecessor(ylocal);
    if (r == kNoKey) return kNoKey;
    return s.base + r >= rlo ? s.base + r : kNoKey;
  }

  /// Smallest present key of shard `s` within [rlo, rhi) ∩ (y, ∞), global
  /// coordinates, or kNoKey.
  static Key range_succ(const reshard::Shard& s, Key rlo, Key rhi, Key y) {
    const Key bot = std::max(rlo, y + 1);  // inclusive lower bound
    if (bot >= rhi) return kNoKey;
    const Key ylocal = std::max<Key>(bot - 1 - s.base, -1);
    if (ylocal >= s.trie->universe() - 1) return kNoKey;
    const Key r = s.trie->successor(ylocal);
    if (r == kNoKey) return kNoKey;
    return s.base + r < rhi ? s.base + r : kNoKey;
  }

  /// Nearest key past y (above when Upward) among entry [elo, ehi)'s keys
  /// in `s` and, when d is set, in migration dst `d` over [dlo, ehi).
  /// src is probed BEFORE dst: a move inserts into dst before erasing
  /// from src, so a key present throughout is seen by some probe.
  template <bool Upward>
  static Key probe(const reshard::Shard& s, const reshard::Shard* d, Key dlo,
                   Key elo, Key ehi, Key y) {
    const Key ra = Upward ? range_succ(s, elo, ehi, y)
                          : range_pred(s, elo, ehi, y);
    if (d == nullptr) return ra;
    const Key rb = Upward ? range_succ(*d, dlo, ehi, y)
                          : range_pred(*d, dlo, ehi, y);
    if (!Upward) return std::max(ra, rb);  // kNoKey == -1 orders lowest
    return ra == kNoKey ? rb : (rb == kNoKey ? ra : std::min(ra, rb));
  }

  /// Epochs of one routing entry's shard `a` (and of the dst `b` of a
  /// migration intersecting it), re-read by unchanged(). A walk's no-key
  /// observation needs insert epochs only; pair-reads and scans need
  /// both — an erase invalidates a reported key as an insert does a gap.
  struct EpochObs {
    reshard::Shard* a = nullptr;
    reshard::Shard* b = nullptr;
    uint64_t ia = 0, da = 0, ib = 0, db = 0;
    void record(reshard::Shard* s, reshard::Shard* d) {
      a = s;
      b = d;
      ia = s->ins_epoch.value.load();
      da = s->del_epoch.value.load();
      if (d != nullptr) {
        ib = d->ins_epoch.value.load();
        db = d->del_epoch.value.load();
      }
    }
    bool unchanged(bool with_del) const {
      if (a->ins_epoch.value.load() != ia ||
          (with_del && a->del_epoch.value.load() != da)) {
        return false;
      }
      return b == nullptr || (b->ins_epoch.value.load() == ib &&
                              (!with_del || b->del_epoch.value.load() == db));
    }
  };

  /// One observation of entry i for walk(): its nearest key past y, or
  /// kNoKey. Fills `obs`; a union pair-read validates itself.
  template <bool Upward>
  Key observe(const reshard::RangeTable* t, int i, Key y, EpochObs& obs) {
    const Key elo = t->lo[i];
    const Key ehi = t->lo[i + 1];
    reshard::Shard* s = t->shard[i];
    const reshard::SplitCtl* c = s->ctl.load();
    if (c == nullptr || c->move_lo >= ehi) {
      // No migration intersects this entry (a published split's moved
      // range starts exactly at the shrunk entry's upper bound). A walk
      // validates insert epochs only; skip the contended delete epoch.
      obs = EpochObs{s, nullptr, s->ins_epoch.value.load()};
      if (s->trie->empty()) return kNoKey;
      return probe<Upward>(*s, nullptr, elo, elo, ehi, y);
    }
    const Key dlo = std::max(elo, c->move_lo);
    for (;;) {
      obs.record(s, c->dst);
      const Key ans = probe<Upward>(*s, c->dst, dlo, elo, ehi, y);
      // Clean pair-read: no client update landed in the range between
      // the probes, and migration moves preserve the union, so the
      // union was static and the extremum is exact. A dirty one means
      // some client op completed — progress — so this stays lock-free.
      if (obs.unchanged(/*with_del=*/true)) return ans;
    }
  }

  /// Visits every live shard's trie once, under one guard: the table's
  /// shards plus an in-flight split's dst, which is not in the table
  /// yet (a merge's dst is the left entry's shard — already visited).
  template <class F>
  void for_each_trie(F&& f) const {
    ebr::Guard g;
    const auto* t = table_.load();
    for (int i = 0; i < t->n; ++i) {
      const reshard::Shard* s = t->shard[i];
      f(*s->trie);
      const reshard::SplitCtl* c = s->ctl.load();
      if (c != nullptr && !c->merge && c->move_lo < t->lo[i + 1]) {
        f(*c->dst->trie);
      }
    }
  }

  // ---- migration (control plane; ctl_mu_ held) -------------------------

  bool split_locked(int i, const SplitPacer& pacer) {
    const auto* t = table_.load(std::memory_order_relaxed);
    if (i < 0 || i >= t->n || t->n >= kMaxShards) return false;
    const Key lo = t->lo[i];
    const Key hi = t->lo[i + 1];
    if (hi - lo < 2) return false;
    const Key mid = lo + (hi - lo) / 2;
    migrate(new reshard::SplitCtl{mid, hi, t->shard[i],
                                  new reshard::Shard(mid, hi - mid),
                                  /*merge=*/false},
            pacer);
    return true;
  }

  /// Runs c to completion: install it, drain the moved range window by
  /// window, publish the new table, then wait one grace period before
  /// clearing the ctl — every guard still routing through the old table
  /// finds it, and none can see the next migration as well.
  void migrate(reshard::SplitCtl* c, const SplitPacer& pacer) {
    reshard::Shard* src = c->src;
    reshard::Shard* dst = c->dst;
    c->word.store(reshard::pack_mig(false, c->move_lo));
    src->ctl.store(c);
    for (Key wm = c->move_lo; wm < c->move_hi;) {
      if (pacer) pacer(wm);
      // Announce the window, then wait one grace period: every client op
      // routed before the announce has finished, so this thread is the
      // only writer of window keys during the copy.
      c->word.store(reshard::pack_mig(true, wm));
      ebr::synchronize();
      // Move each present key with the idempotent insert-to-new /
      // erase-from-old pair, then settle the window.
      const Key win_end =
          std::min<Key>(wm + reshard::SplitCtl::kBatch, c->move_hi);
      for (Key r = src->trie->successor(wm - 1 - src->base);
           r != kNoKey && src->base + r < win_end;
           r = src->trie->successor(r)) {
        dst->trie->insert(src->base + r - dst->base);
        src->trie->erase(r);
      }
      c->word.store(reshard::pack_mig(false, win_end));
      wm = win_end;
    }
    publish(*c);
    ebr::synchronize();
    src->ctl.store(nullptr);
    if (c->merge) ebr::retire(src);
    ebr::retire(c);
  }

  /// Republishes the routing table for c's drained migration: a split
  /// inserts dst's entry at move_lo, a merge drops src's entry (dst's
  /// widened entry absorbs it).
  void publish(const reshard::SplitCtl& c) {
    reshard::RangeTable* t = table_.load(std::memory_order_relaxed);
    auto* nt = new reshard::RangeTable;
    int m = 0;
    for (int j = 0; j < t->n; ++j) {
      if (t->shard[j] == c.src && c.merge) continue;  // victim entry
      nt->lo[m] = t->lo[j];
      nt->shard[m++] = t->shard[j];
      if (t->shard[j] == c.src && !c.merge) {
        nt->lo[m] = c.move_lo;  // the new shard takes the top half
        nt->shard[m++] = c.dst;
      }
    }
    nt->n = m;
    nt->lo[m] = u_;
    table_.store(nt);
    reshard_seq_.fetch_add(1);
    ebr::retire(t);
  }

  const Key u_;
  const Key width_;
  std::atomic<reshard::RangeTable*> table_{nullptr};
  std::atomic<uint64_t> reshard_seq_{0};
  std::mutex ctl_mu_;  // serializes whole reshards
};

}  // namespace lfbt
