#include "core/lockfree_trie.hpp"

#include <algorithm>
#include <cassert>

#include "core/trie_pools.hpp"
#include "sync/ebr.hpp"

namespace lfbt {
namespace {

/// True iff key `k` lies on side `side` of `y`: below it on kPredSide,
/// above it on kSuccSide.
bool on_side(Key k, Key y, int side) {
  return side == kPredSide ? k < y : k > y;
}

/// Directional candidate combiner: keeps the largest key on the
/// predecessor side and the smallest on the successor side; kNoKey means
/// "no candidate yet" and never beats a real key.
void consider(Key& best, Key cand, int side) {
  if (cand == kNoKey) return;
  if (best == kNoKey || on_side(best, cand, side)) best = cand;
}

template <class Vec>
void consider_all(Key& best, const Vec& v, int side) {
  for (const UpdateNode* n : v) consider(best, n->key, side);
}

/// Paper l.153 and its mirror: pin and return the INS node of the
/// ascending U-ALL snapshot `ins` nearest `y` on `side` (largest key < y
/// / smallest key > y); null if there is none or its pin fails.
template <class Vec>
UpdateNode* pin_nearest_ins(const Vec& ins, Key y, int side) {
  const std::size_t n = ins.size();
  for (std::size_t j = 0; j < n; ++j) {
    UpdateNode* cand = ins[side == kPredSide ? n - 1 - j : j];
    if (on_side(cand->key, y, side)) return cand->try_pin() ? cand : nullptr;
  }
  return nullptr;
}

/// One side's share of the notify-list pass (paper l.218–227 and its
/// mirror): acceptance tests are the paper's, reflected through the key
/// order on the successor side; the scratch sets dedup.
void accept_notification(const NotifyNode* nn, int side, DirScratch& ds) {
  const Key thr = nn->threshold[side];
  if (nn->update_node->type == NodeType::kIns) {
    if (!on_side(nn->key, thr, side)) ds.i_notify.insert(nn->update_node);
  } else if (on_side(thr, nn->key, side)) {
    ds.d_notify.insert(nn->update_node);
  }
  // l.226–227: accept the notifier's U-ALL extremum when we were past
  // the position-list end at notification time and the notifier itself
  // is not an update we already account for via the position list.
  const Key end_threshold = side == kPredSide ? kNegInf : kPosInf;
  if (thr == end_threshold && !ds.i_pos.contains(nn->update_node) &&
      !ds.d_pos.contains(nn->update_node)) {
    UpdateNode* ext = nn->ext[side];
    if (ext != nullptr) ds.i_notify.insert(ext);
  }
}

}  // namespace

LockFreeBinaryTrie::LockFreeBinaryTrie(Key universe)
    : core_(universe),
      lists_{AnnounceList(kPredSide), AnnounceList(kSuccSide)} {}

LockFreeBinaryTrie::~LockFreeBinaryTrie() {
  core_.drain_resident_for_destruction();
  // Cells still chained belong to resident nodes' canonical announcements;
  // quiescence makes the raw walks safe.
  for (AnnounceList& l : lists_) l.release_all_cells_for_destruction();
}

bool LockFreeBinaryTrie::contains(Key x) {
  assert(x >= 0 && x < core_.universe());
  // Latest-list nodes may be recycled, and peek_latest dereferences them.
  ebr::Guard guard;
  UpdateNode* n = core_.peek_latest(x);
  return n != nullptr && n->type == NodeType::kIns;
}

void LockFreeBinaryTrie::announce(UpdateNode* u) {
  // U-ALL before RU-ALL; retract() keeps the same order. Lemma 5.19's
  // argument needs visible U-ALL presence to imply visible RU-ALL
  // presence once activated. Its successor mirror asks the same of the
  // successor position list, which is the U-ALL itself.
  uall().insert(u);
  ruall().insert(u);
}

void LockFreeBinaryTrie::retract(UpdateNode* u) {
  uall().remove(u);
  ruall().remove(u);
}

// Paper l.128–136.
void LockFreeBinaryTrie::help_activate(UpdateNode* u) {
  if (u->status.load() == UpdateNode::kInactive) {
    Stats::count_help();
    announce(u);
    u->status.store(UpdateNode::kActive);
    if (u->type == NodeType::kDel) {
      // l.133: stop the target of the Insert this Delete superseded.
      if (UpdateNode* ln = u->latest_next.load()) {
        if (DelNode* tg = ln->target.load()) tg->stop.store(true);
      }
    }
    u->latest_next.store(nullptr);  // l.134
    if (u->completed.load()) {      // l.135: owner finished; re-retract
      retract(u);
    }
  }
}

// Paper l.162–180. The guard covers notify_query_ops' P-ALL walk (its
// targets may be recycled announcement nodes).
void LockFreeBinaryTrie::insert(Key x) { insert_op<false>(x); }

bool LockFreeBinaryTrie::stall_insert_for_test(Key x) {
  return insert_op<true>(x);
}

template <bool Crash>
bool LockFreeBinaryTrie::insert_op(Key x) {
  assert(x >= 0 && x < core_.universe());
  ebr::Guard guard;
  UpdateNode* d_node = core_.find_latest(x);
  if (d_node->type != NodeType::kDel) return false;  // l.164: x already in S
  UpdateNode* i_node = InsNodePool::acquire(x);
  i_node->latest_next.store(d_node);  // l.167
  // l.168: help stop the Delete the previous Insert targeted (ignore ⊥s).
  if (UpdateNode* ln = d_node->latest_next.load()) {
    if (DelNode* tg = ln->target.load()) tg->stop.store(true);
  }
  d_node->latest_next.store(nullptr);  // l.169
  size_.fetch_add(1);  // count before the linearizing CAS: size() >= |S|
  if (!core_.cas_latest(x, d_node, i_node)) {
    size_.fetch_sub(1);                   // lost the claim; x not inserted
    help_activate(core_.read_latest(x));  // l.171
    retire_unpublished(i_node);           // never entered a shared structure
    return false;
  }
  announce(i_node);                                // l.173
  i_node->status.store(UpdateNode::kActive);       // l.174 — linearization
  upd_epoch_.fetch_add(1);  // scan validation: bump after linearization
  if constexpr (Crash) return true;  // stall point: linearized, then crash
  i_node->latest_next.store(nullptr);              // l.175
  core_.insert_binary_trie(i_node);                // l.176
  notify_query_ops(i_node);                        // l.177
  i_node->completed.store(true);                   // l.178
  retract(i_node);                                 // l.179
  // Reclamation triggers: the DEL node this insert superseded, and
  // (if a newer delete already claimed the latest slot) this op's own
  // node — the superseding-op trigger of that delete may have run before
  // `completed` was set, so the self-check closes the gap.
  core_.try_retire_update(d_node);
  core_.try_retire_update(i_node);
  return true;
}

// Paper l.181–206 with the embedded queries FUSED: one direction-pair
// helper before the claiming CAS (producing delPred and its mirror from
// a single announce point) and one after activation, before
// DeleteBinaryTrie (producing delPred2 and its mirror) — so, exactly as in
// the paper (l.201 precedes l.203), both second-query results are always
// written before this DEL node can reach a notify list.
void LockFreeBinaryTrie::erase(Key x) { erase_op<false>(x); }

bool LockFreeBinaryTrie::stall_delete_for_test(Key x) {
  return erase_op<true>(x);
}

template <bool Crash>
bool LockFreeBinaryTrie::erase_op(Key x) {
  assert(x >= 0 && x < core_.universe());
  ebr::Guard guard;
  UpdateNode* i_node = core_.peek_latest(x);
  if (i_node == nullptr || i_node->type != NodeType::kIns) {
    return false;  // l.183: x not in S
  }
  QueryAnswer q1 = query_helper_fused(x, QueryDir::kBoth);  // l.184 + mirror
  DelNode* d_node = DelNodePool::acquire(x, core_.b());
  d_node->latest_next.store(i_node);     // l.187
  for (int side = 0; side < kNumSides; ++side) {
    d_node->del_ans[side] = q1.ans[side];  // l.188 + mirror
  }
  d_node->del_query_node = q1.node;      // l.189 (one node, both directions)
  d_node->del_query_gen = q1.node->gen;
  i_node->latest_next.store(nullptr);    // l.190
  notify_query_ops(i_node);              // l.191 — help previous Insert notify
  if (!core_.cas_latest(x, i_node, d_node)) {
    help_activate(core_.read_latest(x));  // l.193
    retire_query_node(q1.node);           // l.194
    retire_unpublished(d_node);           // never entered a shared structure
    return false;
  }
  announce(d_node);                               // l.196
  d_node->status.store(UpdateNode::kActive);      // l.197 — linearization
  size_.fetch_sub(1);  // x left S at l.197; decrement strictly after
  upd_epoch_.fetch_add(1);  // scan validation: bump after linearization
  if (DelNode* tg = i_node->target.load()) {      // l.198
    tg->stop.store(true);
  }
  d_node->latest_next.store(nullptr);             // l.199
  QueryAnswer q2 = query_helper_fused(x, QueryDir::kBoth);  // l.200 + mirror
  for (int side = 0; side < kNumSides; ++side) {
    d_node->del_ans2[side].store(q2.ans[side]);   // l.201 + mirror
  }
  // Stall point: crash before DeleteBinaryTrie / notify / retract, so
  // both fused announcements stay in the P-ALL forever.
  if constexpr (Crash) return true;
  core_.delete_binary_trie(d_node);               // l.202
  notify_query_ops(d_node);                       // l.203
  d_node->completed.store(true);                  // l.204
  retract(d_node);                                // l.205
  retire_query_node(q1.node);                     // l.206
  retire_query_node(q2.node);
  // Reclamation triggers (see insert_op()).
  core_.try_retire_update(i_node);
  core_.try_retire_update(d_node);
  return true;
}

// Paper l.137–145 and its successor mirror, fused into ONE pass over the
// ascending U-ALL: first-activated update nodes with key < x go to
// *below, with key > x to *above. A predecessor-only caller (above ==
// nullptr) stops at the first cell with key >= x, recovering the paper's
// prefix-walk cost; a successor-only caller filters the prefix away (the
// suffix walk's cost is O(U-ALL length) either way). Each update node
// appears at most once per walk — cells are claimed canonically
// (announce_list.hpp) and the walk only moves forward — so plain
// push_back replaces the old push_unique scan.
void LockFreeBinaryTrie::traverse_uall_fused(Key x, UallBufs* below,
                                             UallBufs* above) {
  AnnounceList& list = uall();
  for (AnnCell* c = list.next_visible(list.head()); c != list.tail();
       c = list.next_visible(c)) {
    Stats::count_read();
    if (c->key >= x && above == nullptr) break;
    if (c->key == x) continue;
    UallBufs* dst = c->key < x ? below : above;
    if (dst == nullptr) continue;
    UpdateNode* u = c->node;
    if (u->status.load() != UpdateNode::kInactive && core_.first_activated(u)) {
      (u->type == NodeType::kIns ? dst->ins : dst->del).push_back(u);
    }
  }
}

// Paper l.146–155, serving all three announcement kinds: per side the
// target announces, the threshold is its current position in that
// side's list (RU-ALL / U-ALL) and the recorded U-ALL extremum is the
// INS node nearest its key on that side. A fused target receives ONE
// notify node carrying both sides.
void LockFreeBinaryTrie::notify_query_ops(UpdateNode* u) {
  QueryScratch& sc = QueryScratch::get();
  sc.notify_uall.clear();
  traverse_uall_fused(kPosInf, &sc.notify_uall, nullptr);  // l.147 — all keys
  const auto& ins = sc.notify_uall.ins;                    // ascending
  for (PredecessorNode* p = pall_.first_live(); p != nullptr;
       p = PAll::next_live(p)) {
    if (!core_.first_activated(u)) return;  // l.149
    NotifyNode* n = NotifyNodePool::acquire();
    // Pin discipline: each non-null update-node reference of a published
    // notify node holds one pin, dropped when the target announcement is
    // drained (retire_query_announcement). A pin failure means the node
    // was just retired, i.e. superseded AND completed:
    //  * for `u` itself that implies the push validation below would
    //    fail — bail out exactly as the paper's l.160 does;
    //  * for an extremum candidate the superseding delete activated
    //    inside the target query's live window, giving the query a
    //    linearization point at which the candidate's key is absent, so
    //    omitting it is sound (docs/DESIGN.md, Reclamation).
    if (!u->try_pin()) {
      NotifyNodePool::release(n);
      return;
    }
    n->key = u->key;
    n->update_node = u;
    for (int side = 0; side < kNumSides; ++side) {
      if (!has_side(p->dir, side)) continue;
      n->ext[side] = pin_nearest_ins(ins, p->key, side);  // l.153
      // l.154: the query op's current position-list key on this side.
      n->threshold[side] = AnnounceList::strip(p->position[side].read())->key;
    }
    // l.156–161: publish, revalidating first-activation before the CAS.
    bool sent = NotifyList::push(p, n, [&] { return core_.first_activated(u); });
    if (!sent) {
      unpin_update(u);  // abandoned: give the pins and the node back
      for (UpdateNode* ext : n->ext) {
        if (ext != nullptr) unpin_update(ext);
      }
      NotifyNodePool::release(n);
      return;
    }
    Stats::count_notify_push();
  }
}

// Paper l.257–269 and its mirror. Advances the side's position word
// with atomic copies and collects first-activated update nodes on that
// side of the key: key < p->key walking the descending RU-ALL on the
// predecessor side, key > p->key walking the ascending U-ALL on the
// successor side. Each node appears at most once (canonical cells,
// strictly advancing single-writer position), so the sorted-set inserts
// serve as the membership index, not as dedup.
void LockFreeBinaryTrie::traverse_position_list(PredecessorNode* p, int side,
                                                DirScratch& ds) {
  AnnounceList& list = lists_[side];
  AtomicCopyWord& pos = p->position[side];
  const Key y = p->key;
  AnnCell* u = AnnounceList::strip(pos.read());
  do {
    pos.copy(list.next_word(u));  // l.262 — atomic copy
    u = AnnounceList::strip(pos.read());
    Stats::count_read();
    if (u != list.tail() && on_side(u->key, y, side)) {
      UpdateNode* n = u->node;
      // Canonicity check (`ann_cell == u`) filters cells spliced by
      // helpers that lost the announcement claim; see announce_list.hpp.
      if (n->status.load() != UpdateNode::kInactive &&
          n->ann_cell[side].load() == u && core_.first_activated(n)) {
        if (n->type == NodeType::kIns) {
          ds.i_pos.insert(n);
        } else {
          ds.d_pos.insert(n);
        }
      }
    }
  } while (u != list.tail());
}

// Paper l.207–252 (PredHelper) and its key-order mirror, FUSED: one
// P-ALL announcement (tagged with the side mask `dir`), one Q snapshot,
// one pass over the notify list and one pass over the U-ALL serve every
// side the caller asked for. With dir == kPred or kSucc the other side
// is inert and this is exactly the single-direction helper (the paper's
// algorithm, reflected for kSucc), so predecessor()/successor() keep
// their proofs. With dir == kBoth the two sides share the announce
// point; each side's acceptance tests, candidate sets and fallback are
// evaluated independently against that one announcement — see
// docs/DESIGN.md, "Fused bidirectional embedded queries".
LockFreeBinaryTrie::QueryAnswer LockFreeBinaryTrie::query_helper_fused(
    Key y, QueryDir dir) {
  Stats::count_query_helper(dir == QueryDir::kBoth);

  QueryScratch& sc = QueryScratch::get();
  sc.reset_query();

  PredecessorNode* p_node = QueryNodePool::acquire(y, dir);
  for (int side = 0; side < kNumSides; ++side) {
    if (has_side(dir, side)) {
      p_node->position[side].store(AnnounceList::pack(lists_[side].head()));
    }
  }
  pall_.push(p_node);  // l.209 — the ONE announce point for all sides

  // l.210–214: snapshot the P-ALL suffix. Kept newest-first (raw chain
  // order); the fallback's oldest-first scans iterate it backwards, so
  // no query pays a reverse. Q deliberately contains every announcement
  // kind; the fallback matches only the node a Delete embedded (plus
  // its generation).
  for (PredecessorNode* it = PAll::next_raw(p_node); it != nullptr;
       it = PAll::next_raw(it)) {
    sc.q.push_back(it);
  }

  // Each side keeps the paper's order: position list, then relaxed
  // traversal, then (below, shared) the U-ALL and the notify list.
  Key r0[kNumSides] = {kNoKey, kNoKey};
  for (int side = 0; side < kNumSides; ++side) {
    if (!has_side(dir, side)) continue;
    traverse_position_list(p_node, side, sc.side[side]);  // l.215
    r0[side] = side == kPredSide ? core_.relaxed_predecessor(y)  // l.216
                                 : core_.relaxed_successor(y);
  }
  traverse_uall_fused(  // l.217
      y, has_side(dir, kPredSide) ? &sc.side[kPredSide].uall : nullptr,
      has_side(dir, kSuccSide) ? &sc.side[kSuccSide].uall : nullptr);

  // l.218–227 and its mirror in ONE pass: each notification is offered
  // to every side whose window contains its key, under that side's
  // threshold/extremum. The head snapshot (Cnotify) is shared — both
  // sides see the same prefix.
  for (NotifyNode* nn = NotifyList::head(p_node); nn != nullptr;
       nn = nn->next.load()) {
    for (int side = 0; side < kNumSides; ++side) {
      if (has_side(dir, side) && on_side(nn->key, y, side)) {
        accept_notification(nn, side, sc.side[side]);
      }
    }
  }

  QueryAnswer out;
  out.node = p_node;
  for (int side = 0; side < kNumSides; ++side) {
    if (!has_side(dir, side)) continue;
    out.ans[side] =
        direction_answer(y, side, p_node, r0[side], sc, sc.side[side]);
  }
  return out;  // l.252
}

// Paper l.228–252 for one side: combine the announcement-derived
// candidate sets into r1, resolve a ⊥ from the relaxed traversal through
// the fallback, and take the directional extremum.
Key LockFreeBinaryTrie::direction_answer(Key y, int side,
                                         PredecessorNode* p_node, Key r0,
                                         QueryScratch& sc, DirScratch& ds) {
  // l.228: r1 over Iuall ∪ Inotify ∪ (Duall − Dpos) ∪ (Dnotify − Dpos),
  // taking the directional extremum (max below y / min above y).
  Key r1 = kNoKey;
  consider_all(r1, ds.uall.ins, side);
  consider_all(r1, ds.i_notify, side);
  for (UpdateNode* n : ds.uall.del) {
    if (!ds.d_pos.contains(n)) consider(r1, n->key, side);
  }
  for (const UpdateNode* n : ds.d_notify) {
    if (!ds.d_pos.contains(n)) consider(r1, n->key, side);
  }
  // l.230–251: the trie traversal was blocked by concurrent updates.
  if (r0 == kBottom) {
    r0 = ds.d_pos.empty() ? kNoKey : bottom_fallback(y, side, p_node, sc, ds);
  }
  consider(r1, r0, side);
  return r1;
}

// Paper l.231–251, parameterized by side: recover a candidate from
// embedded-query results when the relaxed traversal returned ⊥ and old
// deletes (Dpos: the Druall of the paper, or its U-ALL mirror) are in
// flight. The TL graph's edges are key -> del_ans2[side]: strictly
// decreasing on the predecessor side (the paper's delPred2), strictly
// increasing on the successor side; either way walks terminate at
// sinks. Every working set lives in the per-thread scratch; membership
// tests are sorted-set probes.
Key LockFreeBinaryTrie::bottom_fallback(Key y, int side,
                                        PredecessorNode* p_node,
                                        QueryScratch& sc, DirScratch& ds) {
  auto in_window = [&](Key k) { return on_side(k, y, side); };

  // l.232–234: the earliest-announced embedded-query node of a Dpos
  // delete that we saw in the P-ALL. sc.q is newest-first, so walk it
  // backwards (oldest-first) and stop at the first match — the same
  // early exit the paper's oldest-first Q scan has. The generation
  // check rejects an embedded node that was recycled into a fresh
  // announcement (equivalent to it having been physically unlinked
  // before our snapshot, which the algorithm already tolerates).
  PredecessorNode* p_prime = nullptr;
  for (std::size_t i = sc.q.size(); i-- > 0 && p_prime == nullptr;) {
    PredecessorNode* cand = sc.q[i];
    for (const UpdateNode* n : ds.d_pos) {
      const auto* dn = static_cast<const DelNode*>(n);
      if (dn->del_query_node == cand && dn->del_query_gen == cand->gen) {
        p_prime = cand;
        break;
      }
    }
  }

  // l.231–236: L1 = update nodes that notified pNode', oldest-first.
  // The notify list is newest-first; "prepend if not already present"
  // (keep the newest occurrence, reverse the order) becomes append-if-
  // first-seen followed by one reverse.
  sc.l1.clear();
  sc.l_seen.clear();
  if (p_prime != nullptr) {
    for (NotifyNode* nn = NotifyList::head(p_prime); nn != nullptr;
         nn = nn->next.load()) {
      if (in_window(nn->key) && sc.l_seen.insert(nn->update_node)) {
        sc.l1.push_back(nn->update_node);
      }
    }
  }
  sc.l1.reverse();

  // l.237–241: L2 from our own notify list (the notifications we
  // *rejected* plus early INS ones — thresholds on the not-yet-passed
  // side of the key); every notifier seen here is dropped from L1.
  sc.l2.clear();
  sc.l_seen.clear();
  for (NotifyNode* nn = NotifyList::head(p_node); nn != nullptr;
       nn = nn->next.load()) {
    if (!in_window(nn->key)) continue;
    sc.l1.remove_value(nn->update_node);
    const bool rejected = !on_side(nn->threshold[side], nn->key, side);
    if (rejected && sc.l_seen.insert(nn->update_node)) {
      sc.l2.push_back(nn->update_node);
    }
  }
  sc.l2.reverse();

  // l.242–243: L = L1 ++ L2, then drop every DEL node that is not the
  // last update node in L with its key (direction-independent: pure
  // same-key recency). One backward pass with a key-set replaces the old
  // quadratic forward scan; the second reverse restores L's order.
  sc.l_filtered.clear();
  sc.key_seen.clear();
  const std::size_t n1 = sc.l1.size(), n2 = sc.l2.size();
  for (std::size_t i = n1 + n2; i-- > 0;) {
    UpdateNode* n = i < n1 ? sc.l1[i] : sc.l2[i - n1];
    const bool later_same_key = sc.key_seen.contains(n->key);
    sc.key_seen.insert(n->key);
    if (n->type == NodeType::kDel && later_same_key) continue;
    sc.l_filtered.push_back(n);
  }
  sc.l_filtered.reverse();

  // Definition 5.1: TL = (V, E), E = {key -> del_ans2[side]} for DEL
  // nodes in L. After l.243 there is at most one DEL node (hence one
  // outgoing edge) per key, and every edge strictly moves away from y
  // (down-key for predecessor, up-key for successor), so walks from X
  // terminate at sinks. Edges are sorted by source for binary search.
  sc.edges.clear();
  for (UpdateNode* n : sc.l_filtered) {
    if (n->type == NodeType::kDel) {
      auto* dn = static_cast<DelNode*>(n);
      Key d2 = dn->del_ans2[side].load();
      // DEL nodes reach notify lists only after del_ans2 is written
      // (l.201 + mirror precede l.203); guard anyway.
      if (d2 != kUnsetPred) sc.edges.push_back({n->key, d2});
    }
  }
  std::sort(sc.edges.begin(), sc.edges.end(),
            [](const QueryScratch::Edge& a, const QueryScratch::Edge& b) {
              return a.from < b.from;
            });
  auto out_edge = [&](Key v) -> const Key* {
    const auto* it = std::lower_bound(
        sc.edges.begin(), sc.edges.end(), v,
        [](const QueryScratch::Edge& e, Key k) { return e.from < k; });
    return it != sc.edges.end() && it->from == v ? &it->to : nullptr;
  };

  // l.247–248: X = {del_ans[side] of Dpos deletes} ∪ {keys of INS
  // nodes in L}.
  sc.x_set.clear();
  for (const UpdateNode* n : ds.d_pos) {
    sc.x_set.push_back(static_cast<const DelNode*>(n)->del_ans[side]);
  }
  for (UpdateNode* n : sc.l_filtered) {
    if (n->type == NodeType::kIns) sc.x_set.push_back(n->key);
  }
  // l.249–251: R = sinks reachable from X (chain walks; edges are
  // monotone, so a walk takes at most one step per edge), minus the keys
  // of Dpos deletes; answer with the directional extremum of R (the
  // paper guarantees non-emptiness; return -1 defensively).
  sc.key_seen.clear();
  for (const UpdateNode* n : ds.d_pos) sc.key_seen.insert(n->key);
  Key best = kNoKey;
  for (Key v : sc.x_set) {
    for (std::size_t steps = 0; steps <= sc.edges.size(); ++steps) {
      const Key* next = out_edge(v);
      if (next == nullptr) break;
      v = *next;
    }
    if (!sc.key_seen.contains(v)) consider(best, v, side);
  }
  return best;
}

// Paper l.253–256: the fused helper with the successor side inert is
// exactly the paper's Predecessor.
Key LockFreeBinaryTrie::predecessor(Key y) {
  assert(y >= 0 && y <= core_.universe());
  ebr::Guard guard;
  QueryAnswer a = query_helper_fused(y, QueryDir::kPred);
  retire_query_node(a.node);  // l.255
  return a.ans[kPredSide];
}

// Mirror of l.253–256: the fused helper with the predecessor side inert.
Key LockFreeBinaryTrie::successor(Key y) {
  assert(y >= -1 && y < core_.universe());
  ebr::Guard guard;
  QueryAnswer a = query_helper_fused(y, QueryDir::kSucc);
  retire_query_node(a.node);
  return a.ans[kSuccSide];
}

}  // namespace lfbt
