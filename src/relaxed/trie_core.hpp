// TrieCore: the relaxed-binary-trie machinery of Section 4, shared by the
// standalone wait-free relaxed trie and the lock-free linearizable trie of
// Section 5.
//
// The sharing works because the full-trie FindLatest / FirstActivated
// (paper lines 116–127) *degenerate* to the relaxed-trie versions (lines
// 13–21) when every update node is created Active: the Inactive branches
// are never taken, leaving a plain read / a pointer comparison. The
// relaxed trie therefore creates all nodes Active and reuses this code.
//
// Representation. The perfect binary trie over U = {0..2^b - 1} is stored
// implicitly with heap indexing: node 1 is the root, node t has children
// 2t and 2t+1, leaves are indices 2^b + x. Internal nodes are just an
// array of dNodePtr words (paper line 114); leaves have no storage — the
// interpreted bit of leaf x is derived from latest[x].
//
// Lazy dummies. The paper initialises latest[x] and every dNodePtr with
// dummy DEL nodes. Here a null slot *is* the initial dummy: a DEL node of
// the slot's key (x, or the leftmost leaf of t), Active, completed, with
// interpreted bit 0 at every height (upper0 = b, lower1 = b+1). Readers
// never allocate: peek_latest returns null for an untouched latest[x], and
// interpreted_bit reads that as bit 0. dNodePtr slots are never
// materialised — their dummy is only used for its key and CAS identity,
// so delete_binary_trie CASes from null. A latest[x] dummy is materialised
// (a DelNodePool node, CASed in from null) only by the two writers that
// need a real node: an insert, whose CAS needs an expected node and whose
// l.167 latest_next needs a target, and insert_binary_trie, whose
// min-write to the dummy's lower1 is real state. A materialised dummy is
// semantically an "older than everything" DEL node, exactly the initial
// state, and is retired like any completed DEL node once an insert
// supersedes it. Slots never return to null, and a node returns to its
// pool only after a grace period, so every CAS stays ABA-free. Soundness
// of reading null as the dummy: docs/DESIGN.md, "Relaxed trie".
#pragma once

#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>

#include "core/trie_pools.hpp"
#include "core/types.hpp"
#include "core/update_node.hpp"
#include "sync/stats.hpp"

namespace lfbt {

class TrieCore {
 public:
  /// `universe` = u; keys are {0..u-1}. b = ceil(log2 max(u,2)).
  explicit TrieCore(Key universe)
      : u_(universe),
        b_(static_cast<uint32_t>(std::bit_width(
            static_cast<uint64_t>(universe < 2 ? 2 : universe) - 1))),
        leaf_base_(uint64_t{1} << b_),
        latest_(new std::atomic<UpdateNode*>[leaf_base_]()),
        dnodeptr_(new std::atomic<DelNode*>[leaf_base_]()) {
    assert(universe >= 1);
  }

  TrieCore(const TrieCore&) = delete;
  TrieCore& operator=(const TrieCore&) = delete;

  Key universe() const noexcept { return u_; }
  uint32_t b() const noexcept { return b_; }
  uint64_t leaf(Key x) const noexcept { return leaf_base_ + static_cast<uint64_t>(x); }
  uint64_t leaf_base() const noexcept { return leaf_base_; }

  static uint64_t parent(uint64_t t) noexcept { return t >> 1; }
  static uint64_t sibling(uint64_t t) noexcept { return t ^ 1; }
  uint32_t height(uint64_t t) const noexcept {
    return b_ - (static_cast<uint32_t>(std::bit_width(t)) - 1);
  }
  bool is_leaf(uint64_t t) const noexcept { return t >= leaf_base_; }

  /// latest[x], materialising the initial dummy if the slot is still null;
  /// never returns null. For writers that need a real node.
  UpdateNode* read_latest(Key x) {
    Stats::count_read();
    UpdateNode* n = latest_[x].load();
    if (n == nullptr) n = install_latest_dummy(x);
    return n;
  }

  /// CAS on latest[x] (paper l.35/54/170/192).
  bool cas_latest(Key x, UpdateNode* expected, UpdateNode* desired) {
    bool ok = latest_[x].compare_exchange_strong(expected, desired);
    Stats::count_cas(ok);
    return ok;
  }

  /// Paper FindLatest (l.116–120): first activated node of the latest[x]
  /// list, materialising the initial dummy of an untouched slot.
  UpdateNode* find_latest(Key x) {
    return skip_inactive_head(read_latest(x));
  }

  /// FindLatest for readers: null iff latest[x] is still the untouched
  /// initial dummy, which nothing is allocated for.
  UpdateNode* peek_latest(Key x) {
    Stats::count_read();
    UpdateNode* n = latest_[x].load();
    return n == nullptr ? nullptr : skip_inactive_head(n);
  }

  /// Paper FirstActivated (l.125–127). `n` was installed in
  /// latest[n->key], so the slot is not null.
  bool first_activated(UpdateNode* n) {
    Stats::count_read();
    UpdateNode* u = latest_[n->key].load();
    assert(u != nullptr);
    if (u == n) return true;
    Stats::count_read(2);
    return u->status.load() == UpdateNode::kInactive && u->latest_next.load() == n;
  }

  /// Paper InterpretedBit (l.22–27). An untouched latest slot is the
  /// initial dummy, whose upper0 = b and lower1 = b+1 make the bit 0.
  bool interpreted_bit(uint64_t t) {
    if (is_leaf(t)) {
      UpdateNode* u = peek_latest(static_cast<Key>(t - leaf_base_));
      return u != nullptr && u->type == NodeType::kIns;
    }
    UpdateNode* u = peek_latest(dnode_key(t, read_dnodeptr(t)));
    if (u == nullptr) return false;
    if (u->type == NodeType::kIns) return true;
    auto* dn = static_cast<DelNode*>(u);
    const uint32_t h = height(t);
    Stats::count_read(2);
    if (h <= dn->upper0.load()) {
      if (h < dn->lower1.read(std::memory_order_seq_cst) && first_activated(u)) {
        return false;
      }
    }
    return true;
  }

  /// Paper InsertBinaryTrie (l.38–46): raise interpreted bits to 1 on the
  /// path from iNode.key's leaf-parent to the root. Wait-free, O(log u).
  void insert_binary_trie(UpdateNode* i_node) {
    uint64_t t = leaf(i_node->key);
    while (t > 1) {
      t >>= 1;
      DelNode* d = read_dnodeptr(t);
      // Materialises an untouched latest dummy: l.46 may min-write it.
      UpdateNode* u = find_latest(dnode_key(t, d));
      if (u->type != NodeType::kDel) continue;
      auto* dn = static_cast<DelNode*>(u);
      const uint32_t h = height(t);
      Stats::count_read();
      if (static_cast<UpdateNode*>(d) == u || h <= dn->upper0.load()) {
        if (dn->try_pin()) {
          // `target` always holds a pinned node; the displaced one drops
          // its pin here, the final one at i_node's own retirement.
          if (DelNode* old = i_node->target.exchange(dn)) unpin_update(old);
        }
        // Pin failure means dn is retired, hence its Delete completed —
        // a stop signal aimed at it would be moot, so skipping the store
        // loses nothing.
        if (!first_activated(i_node)) return;
        Stats::count_read();
        if (h < dn->lower1.read(std::memory_order_seq_cst)) {
          dn->lower1.min_write(h, std::memory_order_seq_cst);
          Stats::count_min_write();
        }
      }
    }
  }

  /// Paper DeleteBinaryTrie (l.58–72): lower interpreted bits to 0 on the
  /// path from dNode.key's leaf towards the root, stopping at the first
  /// node with a 1-child or when told to stop. Wait-free, O(log u).
  void delete_binary_trie(DelNode* d_node) {
    const uint32_t b1 = b_ + 1;
    uint64_t t = leaf(d_node->key);
    while (t > 1) {
      if (interpreted_bit(sibling(t)) || interpreted_bit(t)) return;
      t >>= 1;
      DelNode* d = read_dnodeptr(t);
      if (!first_activated(d_node)) return;
      Stats::count_read(2);
      if (d_node->stop.load() ||
          d_node->lower1.read(std::memory_order_seq_cst) != b1) {
        return;
      }
      if (!cas_dnodeptr(t, d, d_node)) {
        // Second attempt (l.67–70): re-read and retry once; outdated
        // deleters lose both attempts to a newer deleter and return.
        d = read_dnodeptr(t);
        if (!first_activated(d_node)) return;
        Stats::count_read(2);
        if (d_node->stop.load() ||
            d_node->lower1.read(std::memory_order_seq_cst) != b1) {
          return;
        }
        if (!cas_dnodeptr(t, d, d_node)) return;
      }
      if (interpreted_bit(2 * t) || interpreted_bit(2 * t + 1)) return;
      d_node->upper0.store(height(t));
    }
  }

  /// Paper RelaxedPredecessor (l.73–90). Returns the predecessor key,
  /// kNoKey (-1), or kBottom (⊥) when concurrent updates block the
  /// downward traversal. Wait-free, O(log u).
  ///
  /// y may be `universe()` (one past the largest key) to query the maximum
  /// of the set; in that case the traversal starts at the root.
  Key relaxed_predecessor(Key y) { return relaxed_walk<false>(y); }

  /// Successor analogue of RelaxedPredecessor (mirror-image traversal):
  /// smallest key > y, kNoKey if none, or kBottom under interference.
  /// y may be -1 to query the minimum of the set. Wait-free, O(log u).
  ///
  /// This is the natural extension the paper's symmetric structure admits
  /// (climb while t is a right child or its right sibling's bit is 0, then
  /// descend the left-most 1-path); the relaxed-trie correctness argument
  /// carries over by symmetry. The Section 5 structure builds its
  /// linearizable successor on exactly this traversal, mirroring the
  /// announcement machinery the same way (core/lockfree_trie.hpp).
  Key relaxed_successor(Key y) { return relaxed_walk<true>(y); }

  /// Test-only inspector: recomputes what the interpreted bit *should* be
  /// in a quiescent state (OR over leaves) and compares; used by the
  /// IB0/IB1 invariant tests.
  bool quiescent_bit_reference(uint64_t t) {
    if (is_leaf(t)) return interpreted_bit(t);
    return quiescent_bit_reference(2 * t) || quiescent_bit_reference(2 * t + 1);
  }

  /// Reclamation trigger: retire `u` once it is provably superseded
  /// (not first-activated) and its operation completed. Called by the
  /// superseding op AND by u's own op at its end — between them every
  /// interleaving is covered, and UpdateNode's state CAS dedups. A latest
  /// dummy is born completed and has no op of its own: the insert that
  /// supersedes it retires it.
  void try_retire_update(UpdateNode* u) {
    if (!u->completed.load() || first_activated(u)) return;
    retire_update(u);
  }

  /// Destruction-time drain (owner's destructor, trie quiescent by
  /// contract): retire every update node still resident in the latest
  /// lists and drop each dNodePtr slot's residency pin, so trie
  /// create/destroy churn reaches a steady state instead of growing the
  /// pools by each dead trie's resident set. A node is released only
  /// when its last pin drops. Notify nodes of query announcements whose
  /// EBR drain is still queued on some thread's limbo list hold pins that
  /// the drain drops later — possibly after this trie is gone — so
  /// releasing a pinned node here would let that late unpin hit a
  /// recycled node.
  void drain_resident_for_destruction() {
    for (uint64_t x = 0; x < static_cast<uint64_t>(u_); ++x) {
      UpdateNode* u = latest_[x].load(std::memory_order_relaxed);
      while (u != nullptr) {
        UpdateNode* next = u->latest_next.load(std::memory_order_relaxed);
        retire_update(u);
        u = next;
      }
    }
    for (uint64_t t = 1; t < leaf_base_; ++t) {
      if (DelNode* d = dnodeptr_[t].load(std::memory_order_relaxed)) {
        unpin_update(d);
      }
    }
  }

 private:
  /// The one body of both relaxed traversals; `Up` selects the successor
  /// mirror. kOut is the child bit pointing in the search direction:
  /// left (0) for predecessor, right (1) for successor.
  template <bool Up>
  Key relaxed_walk(Key y) {
    constexpr uint64_t kOut = Up ? 1 : 0;
    uint64_t t;
    if (Up ? y < 0 : static_cast<uint64_t>(y) >= leaf_base_) {
      if (!interpreted_bit(1)) return kNoKey;
      t = 1;
    } else {
      t = leaf(y);
      // Climb while t's sibling holds no candidate: t is itself an
      // outward child, or the sibling's bit is 0.
      while ((t & 1) == kOut || !interpreted_bit(sibling(t))) {
        t >>= 1;
        if (t == 1) return kNoKey;
      }
      t = sibling(t);  // the outward child of t's parent
    }
    // Descend the path of interpreted-bit-1 nodes nearest y, which
    // prefers the inward child.
    while (!is_leaf(t)) {
      const uint64_t near = 2 * t + (1 - kOut);
      if (interpreted_bit(near)) {
        t = near;
      } else if (interpreted_bit(near ^ 1)) {
        t = near ^ 1;
      } else {
        return kBottom;  // both children 0: a concurrent update interfered
      }
    }
    const Key found = static_cast<Key>(t - leaf_base_);
    return found < u_ ? found : kNoKey;  // padding keys >= u never inserted
  }

  /// FindLatest's l.117–119 on a latest[x] head `u`: an Inactive head
  /// with a live latest_next yields that next node.
  static UpdateNode* skip_inactive_head(UpdateNode* u) {
    if (u->status.load() == UpdateNode::kInactive) {
      Stats::count_read();
      UpdateNode* next = u->latest_next.load();
      Stats::count_read();
      if (next != nullptr) return next;
    }
    return u;
  }

  UpdateNode* install_latest_dummy(Key x) {
    DelNode* d = make_dummy(x);
    UpdateNode* expected = nullptr;
    if (latest_[x].compare_exchange_strong(
            expected, static_cast<UpdateNode*>(d))) {
      Stats::count_cas(true);
      return d;
    }
    retire_unpublished(d);  // lost the install race to another writer
    return expected;
  }

  /// dNodePtr[t]; null is t's initial dummy, which is never materialised.
  DelNode* read_dnodeptr(uint64_t t) {
    Stats::count_read();
    return dnodeptr_[t].load();
  }

  /// Key of the DEL node `d` read from dNodePtr[t]: for the initial dummy
  /// (null), the leftmost leaf key of t's subtrie.
  Key dnode_key(uint64_t t, const DelNode* d) const noexcept {
    if (d != nullptr) return d->key;
    return static_cast<Key>((t << height(t)) - leaf_base_);
  }

  /// dNodePtr residency holds one pin per non-null slot: `desired` is
  /// pinned before the CAS (it is the caller's own live node, so try_pin
  /// cannot fail), the displaced node's residency pin is dropped on
  /// success (the null initial dummy holds none), desired's fresh pin on
  /// failure.
  bool cas_dnodeptr(uint64_t t, DelNode* expected, DelNode* desired) {
    desired->try_pin();
    const bool ok = dnodeptr_[t].compare_exchange_strong(expected, desired);
    Stats::count_cas(ok);
    if (!ok) {
      unpin_update(desired);
    } else if (expected != nullptr) {
      unpin_update(expected);
    }
    return ok;
  }

  /// A dummy DEL node: Active, completed, interpreted bit 0 at every
  /// height (upper0 = b, lower1 = b+1).
  DelNode* make_dummy(Key x) {
    DelNode* d = DelNodePool::acquire(x, b_);
    d->status.store(UpdateNode::kActive, std::memory_order_relaxed);
    d->completed.store(true, std::memory_order_relaxed);
    d->upper0.store(b_, std::memory_order_relaxed);
    return d;
  }

  const Key u_;
  const uint32_t b_;
  const uint64_t leaf_base_;
  std::unique_ptr<std::atomic<UpdateNode*>[]> latest_;
  std::unique_ptr<std::atomic<DelNode*>[]> dnodeptr_;
};

}  // namespace lfbt
