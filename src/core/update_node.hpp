// Node types of the (relaxed and lock-free) binary trie — the paper's
// Figure 4 / Figure 6 field tables, merged: the relaxed trie simply leaves
// the announcement-related fields unused and creates every node Active,
// under which the full-trie FindLatest/FirstActivated degenerate to the
// relaxed-trie versions (a plain read / a pointer comparison).
#pragma once

#include <atomic>
#include <cstdint>

#include "core/types.hpp"
#include "sync/atomic_copy.hpp"
#include "sync/min_register.hpp"

namespace lfbt {

struct UpdateNode;
struct DelNode;
struct PredecessorNode;

/// A cell of the U-ALL or the RU-ALL (paper Section 5.1). Cells are
/// separate from update nodes so that several helpers can race to
/// announce the same update node: each splices its own cell, then one
/// claims canonicity via CAS on UpdateNode::ann_cell (see AnnounceList
/// for the full protocol).
///
/// `next` packs a Cell* with a removal mark in bit 1. Bit 0 stays clear:
/// it is the descriptor tag of AtomicCopyWord, which copies these words
/// into PredecessorNode::position. While the cell rests in AnnCellPool
/// (core/trie_pools.hpp), `next` is its free-list link.
struct AnnCell {
  Key key = 0;
  UpdateNode* node = nullptr;
  std::atomic<uintptr_t> next{0};
};

/// Tombstone installed in UpdateNode::ann_cell[side] when the announcement
/// is retracted. The install CAS claims the retraction exactly once (the
/// owner and any helper may both retract, l.135), so only one of them
/// marks, unlinks and retires the cell — a second retract against a cell
/// that may already be recycled must never touch it. Traversals' canonicity
/// checks (`cell->node->ann_cell[side] == cell`) reject the tombstone for
/// free; visibility of the announcement now ends at this CAS rather than at
/// the removal mark, which only strengthens the U-ALL-before-RU-ALL
/// removal-ordering argument (Lemma 5.19).
inline AnnCell* const kCellRetracted = reinterpret_cast<AnnCell*>(uintptr_t(1));

/// Side mask of an announced query operation: bit `s` set means the
/// announcement serves side `s`. `kBoth` tags a *fused* direction-pair
/// announcement: one P-ALL node that answers predecessor AND successor
/// from a single announce point — the form every Delete embeds
/// (core/lockfree_trie.cpp, query_helper_fused).
enum class QueryDir : uint8_t { kPred = 1, kSucc = 2, kBoth = 3 };

inline bool has_side(QueryDir d, int side) noexcept {
  return (static_cast<unsigned>(d) >> side & 1u) != 0;
}

/// Paper lines 91–104. INS and DEL nodes share a base; DEL-only fields
/// live in DelNode.
///
/// Reclamation (reclaim/node_pool.hpp, core/trie_pools.hpp): every
/// update node comes from InsNodePool/DelNodePool — op nodes of both
/// tries and the latest dummies TrieCore materialises — and carries a
/// packed lifecycle word `reclaim`: bits [1:0] state (live → retired →
/// released), bits [63:2] a pin count. A pin is a reference that
/// outlives EBR guards: one per dNodePtr slot the node resides in, one
/// per notify node referencing it, one for being some INS node's
/// `target`. Retirement (supersession + completion) forbids new pins;
/// release fires when a retired node's last pin drops, and always routes
/// through ebr::retire so guarded readers stay safe. A dNodePtr slot's
/// initial dummy is null and is never materialised, so it holds no pin.
struct UpdateNode {
  UpdateNode(Key k, NodeType t) : key(k), type(t) {}

  /// Immutable for the lifetime of each op; non-const only so the node
  /// pools can reset recycled nodes field-by-field (same reasoning as
  /// PredecessorNode::key below).
  Key key;
  NodeType type;

  /// Inactive(0) -> Active(1); an S-modifying op linearizes at this flip.
  std::atomic<uint8_t> status{0};

  /// Pointer to the previous update node in the latest[key] list; changes
  /// once to nullptr (the paper's ⊥).
  std::atomic<UpdateNode*> latest_next{nullptr};

  /// DEL node this operation wants to min-write (InsertBinaryTrie l.43).
  std::atomic<DelNode*> target{nullptr};

  /// Set by newer operations to tell this one to stop updating bits.
  std::atomic<bool> stop{false};

  /// Set when the op finished updating the trie + notifying (l.178/204).
  std::atomic<bool> completed{false};

  /// Canonical announcement cells, indexed by the side whose position
  /// list holds them: the RU-ALL cell on kPredSide, the U-ALL cell on
  /// kSuccSide. Set once by the claim CAS in AnnounceList::insert, read
  /// by remove and by traversals for the canonicity check.
  std::atomic<AnnCell*> ann_cell[kNumSides] = {{nullptr}, {nullptr}};

  bool is_del() const noexcept { return type == NodeType::kDel; }

  static constexpr uint8_t kInactive = 0;
  static constexpr uint8_t kActive = 1;

  // --- Reclamation word (see the class comment). ---

  static constexpr uint64_t kStateLive = 0;
  static constexpr uint64_t kStateRetired = 1;
  static constexpr uint64_t kStateReleased = 2;
  static constexpr uint64_t kStateMask = 3;
  static constexpr uint64_t kPinUnit = 4;

  std::atomic<uint64_t> reclaim{0};  // live, zero pins

  /// Take a pin; fails (without side effect) once the node is retired.
  bool try_pin() noexcept {
    uint64_t w = reclaim.load();
    for (;;) {
      if ((w & kStateMask) != kStateLive) return false;
      if (reclaim.compare_exchange_weak(w, w + kPinUnit)) return true;
    }
  }

  /// Drop a pin. Returns true iff this call transitioned the node to
  /// Released (retired, last pin gone) — the caller then owns the free.
  bool unpin() noexcept {
    return claim_release(reclaim.fetch_sub(kPinUnit) - kPinUnit);
  }

  /// Live -> Retired, exactly-once; returns false if already retired by
  /// a racing trigger (supersession is observed by both the superseding
  /// op and the node's own op, so two retire calls are the normal case).
  bool mark_retired() noexcept {
    uint64_t w = reclaim.load();
    for (;;) {
      if ((w & kStateMask) != kStateLive) return false;
      if (reclaim.compare_exchange_weak(w, (w & ~kStateMask) | kStateRetired))
        return true;
    }
  }

  /// Retired + zero pins -> Released; returns true iff this call won the
  /// transition (and with it the right to free the storage).
  bool try_claim_release() noexcept { return claim_release(reclaim.load()); }

 private:
  bool claim_release(uint64_t w) noexcept {
    while ((w & kStateMask) == kStateRetired && (w / kPinUnit) == 0) {
      if (reclaim.compare_exchange_weak(w, (w & ~kStateMask) | kStateReleased))
        return true;
    }
    return false;
  }
};

struct DelNode : UpdateNode {
  /// b is the trie height; lower1Boundary initialises to b+1.
  DelNode(Key k, uint32_t b) : UpdateNode(k, NodeType::kDel), lower1(b + 1) {}

  /// All trie nodes at height <= upper0 that depend on this DEL node have
  /// interpreted bit 0. Only the creating Delete writes it (l.72),
  /// incrementing by one per completed DeleteBinaryTrie iteration.
  std::atomic<uint32_t> upper0{0};

  /// Min-register (paper's (b+1)-bit AND): trie nodes at height >= lower1
  /// that depend on this DEL node have interpreted bit 1.
  MinRegister lower1;

  // --- Full-trie (Section 5) fields; unused by the relaxed trie. ---
  //
  // Every Delete embeds TWO fused direction-pair queries (QueryDir::
  // kBoth): one before the claiming CAS whose announcement node and
  // results are recorded below, one after activation whose results land
  // in del_ans2 (written before DeleteBinaryTrie, l.201 and its mirror).
  // The kPredSide entries are the paper's delPred/delPred2 and feed the
  // ⊥-fallback of predecessor queries exactly as in the paper; the
  // kSuccSide entries feed the reflected TL graph of Definition 5.1
  // (edges walking up-key).

  /// Announcement node of the first embedded fused query (immutable).
  /// Both directions' fallback pointer-matching (paper l.232–234 and its
  /// mirror) tests against this one node.
  PredecessorNode* del_query_node = nullptr;

  /// Recycling generation of del_query_node at embedding time. Query
  /// nodes are recycled through EBR once retired from the P-ALL
  /// (lists/pall.hpp, QueryNodePool); a fallback match must therefore
  /// also compare generations — a mismatch means the embedded query's
  /// node left the P-ALL before the observer's snapshot, which the
  /// algorithm already treats as "announcement no longer present".
  uint64_t del_query_gen = 0;

  /// Per-side results of the first embedded query (immutable).
  Key del_ans[kNumSides] = {kNoKey, kNoKey};

  /// Per-side results of the second embedded query; kUnsetPred until
  /// written (before DeleteBinaryTrie, l.201).
  std::atomic<Key> del_ans2[kNumSides] = {kUnsetPred, kUnsetPred};
};

/// A notification pushed by an update operation onto an announced query
/// node's notify list (paper lines 109–113). Immutable after publication.
/// The per-side fields are written for every side the target announces
/// (one node serves both sides of a fused target); an unwritten side
/// keeps defaults that fail every acceptance test of that side.
struct NotifyNode {
  Key key = 0;
  UpdateNode* update_node = nullptr;
  /// Directional extremum of the notifier's U-ALL snapshot: on
  /// kPredSide the INS node with the largest key < the target's key
  /// (paper l.153), on kSuccSide the INS node with the smallest key >
  /// the target's key. May be null.
  UpdateNode* ext[kNumSides] = {nullptr, nullptr};
  /// Key of the RU-ALL (kPredSide) / U-ALL (kSuccSide) cell the query
  /// operation was visiting when notified (paper l.154).
  Key threshold[kNumSides] = {kPosInf, kNegInf};
  /// List link while published; free-list link while the node rests in
  /// NotifyNodePool (which is why it is atomic: a losing free-list popper
  /// may read it while the pool's reset overwrites it).
  std::atomic<NotifyNode*> next{nullptr};

  /// Each non-null update-node reference holds one pin on its referent
  /// (UpdateNode::try_pin), dropped when the owning announcement is
  /// retired and its notify chain drained (core/trie_pools.hpp).
};

/// Announcement of a Predecessor — or, with dir == kSucc, its mirror
/// Successor, or with dir == kBoth, a *fused* direction pair — in the
/// P-ALL (lines 105–108). The paper's name is kept: a successor
/// announcement is structurally a predecessor announcement under the
/// key-order reflection, and a fused announcement is both at one
/// announce point.
struct PredecessorNode {
  explicit PredecessorNode(Key k, QueryDir d = QueryDir::kPred)
      : key(k), dir(d) {}

  /// Immutable for the lifetime of each announcement; rewritten only by
  /// QueryNodePool::acquire when recycling a node no thread can
  /// reference (post-EBR-grace), which is why they are not const: the
  /// pool resets fields individually rather than ending and restarting
  /// the object's lifetime, so concurrent free-list poppers reading the
  /// atomic link race with nothing non-atomic.
  Key key;
  QueryDir dir;

  /// Insert-only list of notifications, newest first.
  std::atomic<NotifyNode*> notify_head{nullptr};

  /// Position-list cell currently visited on each announced side — an
  /// RU-ALL cell on kPredSide, a U-ALL cell on kSuccSide (the paper's
  /// RuallPosition and its mirror); single-writer atomic copy targets
  /// (see atomic_copy.hpp). Each holds an AnnCell* word, possibly with
  /// the list mark (bit 1) set — strip with AnnCell masks. Sides `dir`
  /// does not announce stay 0.
  AtomicCopyWord position[kNumSides];

  /// Intrusive hook for the P-ALL (mark in bit 0: removed). Doubles as
  /// the free-list link while the node rests in QueryNodePool.
  std::atomic<uintptr_t> pall_next{0};

  // --- QueryNodePool bookkeeping (lists/pall.hpp); the pool's
  // per-field reset preserves both across recycling. ---

  /// Incremented on every reuse; pointer matches against embedded-query
  /// references (DelNode::del_query_node) must also match the recorded
  /// generation.
  uint64_t gen = 0;
};

}  // namespace lfbt
