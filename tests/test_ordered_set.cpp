// The OrderedSet façade: every shipped structure models the concept, and
// one templated driver runs the same script on each of them with
// identical results.
#include "shard/ordered_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "baselines/locked_map.hpp"
#include "baselines/seq_binary_trie.hpp"
#include "core/lockfree_trie.hpp"
#include "ebr_test_util.hpp"
#include "keys/compressed_trie.hpp"
#include "keys/encoded_set.hpp"
#include "query/mirrored_trie.hpp"
#include "relaxed/relaxed_trie.hpp"
#include "shard/sharded_trie.hpp"
#include "sync/random.hpp"
#include "workload/workload.hpp"

namespace lfbt {
namespace {

// Every structure in the repository is interchangeable behind the concept.
static_assert(OrderedSet<LockFreeBinaryTrie>);
static_assert(OrderedSet<RelaxedBinaryTrie>);
static_assert(OrderedSet<ShardedTrie>);
static_assert(OrderedSet<SeqBinaryTrie>);
static_assert(OrderedSet<LockedStdSet>);
static_assert(OrderedSet<CompressedBitTrie>);

// The sized refinement: structures with a cardinality API.
static_assert(SizedOrderedSet<LockFreeBinaryTrie>);
static_assert(SizedOrderedSet<ShardedTrie>);
static_assert(SizedOrderedSet<SeqBinaryTrie>);
// Structures without size() must NOT accidentally satisfy the refinement.
static_assert(!SizedOrderedSet<RelaxedBinaryTrie>);

// Sharded refinement: only genuinely partitioned structures qualify.
static_assert(ShardedOrderedSet<ShardedTrie>);
static_assert(!ShardedOrderedSet<CompressedBitTrie>);
static_assert(!ShardedOrderedSet<LockFreeBinaryTrie>);

// The successor-only MirroredTrie oracle is deliberately not an
// OrderedSet.
static_assert(!OrderedSet<MirroredTrie>);

// One seeded script over all six op kinds.
std::vector<Op> make_script(Key u, int n, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Op> script;
  for (int i = 0; i < n; ++i) {
    const Key k = static_cast<Key>(rng.bounded(static_cast<uint64_t>(u)));
    const auto kind = static_cast<OpKind>(rng.bounded(6));
    script.push_back({kind, k, std::min<Key>(k + 20, u - 1), 8});
  }
  return script;
}

/// Runs the script on `s` and returns every answer it observed, in order:
/// contains as 0/1, predecessor(k + 1), successor(k - 1), and for a range
/// scan its count followed by its keys. Updates answer nothing.
template <OrderedSet S>
std::vector<Key> answers(S& s, const std::vector<Op>& script) {
  std::vector<Key> out;
  std::vector<Key> scan;
  for (const Op& op : script) {
    switch (op.kind) {
      case OpKind::kInsert:
        s.insert(op.key);
        break;
      case OpKind::kErase:
        s.erase(op.key);
        break;
      case OpKind::kContains:
        out.push_back(s.contains(op.key) ? 1 : 0);
        break;
      case OpKind::kPredecessor:
        out.push_back(s.predecessor(op.key + 1));
        break;
      case OpKind::kSuccessor:
        out.push_back(s.successor(op.key - 1));
        break;
      case OpKind::kRangeScan:
        scan.clear();
        out.push_back(static_cast<Key>(s.range_scan(op.key, op.hi, op.limit, scan)));
        out.insert(out.end(), scan.begin(), scan.end());
        break;
    }
  }
  return out;
}

TEST(OrderedSetFacade, EveryStructureAnswersOneScriptIdentically) {
  // Every structure runs the same script single-threaded (so the relaxed
  // trie is quiescent and exact) and must give the std::set baseline's
  // answers, answer for answer.
  constexpr Key kU = 128;
  const std::vector<Op> script = make_script(kU, 6000, 29);
  LockedStdSet ref(kU);
  const std::vector<Key> want = answers(ref, script);

  auto check = [&](auto& s, const char* name) {
    const std::vector<Key> got = answers(s, script);
    ASSERT_EQ(got.size(), want.size()) << name;
    const auto diverge = std::mismatch(got.begin(), got.end(), want.begin());
    EXPECT_TRUE(diverge.first == got.end())
        << name << " diverges at answer " << (diverge.first - got.begin());
  };
  LockFreeBinaryTrie flat(kU);
  check(flat, "LockFreeBinaryTrie");
  ShardedTrie sharded(kU, 8);
  check(sharded, "ShardedTrie");
  SeqBinaryTrie seq(kU);
  check(seq, "SeqBinaryTrie");
  CompressedBitTrie compressed(kU);
  check(compressed, "CompressedBitTrie");
  keys::KeyspaceView<uint64_t, LockFreeBinaryTrie> encoded(kU);
  check(encoded, "KeyspaceView<uint64_t, LockFreeBinaryTrie>");
  RelaxedBinaryTrie relaxed(kU);
  check(relaxed, "RelaxedBinaryTrie");
}

}  // namespace
}  // namespace lfbt
