// Sharded quickstart: scale-out partitioning of the lock-free binary trie.
//
//   build/examples/sharded_quickstart
//
// Shows: constructing a ShardedTrie over a universe, how keys route to
// shards, cross-shard predecessor/successor queries, bounded ascending
// range scans, size()/empty(), and many threads hammering
// disjoint-by-chance keys with no external synchronisation — the same
// OrderedSet API as every other structure in the repository. Exits 1 if
// a final "expect" check fails.
#include <cstdio>
#include <thread>
#include <vector>

#include "query/range_scan.hpp"
#include "shard/sharded_trie.hpp"

int main() {
  // A dynamic set over {0, ..., 2^16 - 1}, partitioned into 8 shards of
  // width 2^13. Each shard is an independent LockFreeBinaryTrie with its
  // own trie arrays and announcement lists — no shared contended cache
  // lines.
  lfbt::ShardedTrie set(lfbt::Key{1} << 16, /*shards=*/8);
  std::printf("universe=%ld shards=%d width=%ld\n",
              static_cast<long>(set.universe()), set.shard_count(),
              static_cast<long>(set.shard_width()));

  // --- Routing and cross-shard predecessor ------------------------------
  const lfbt::Key w = set.shard_width();
  set.insert(100);        // shard 0
  set.insert(w + 5);      // shard 1
  set.insert(3 * w + 9);  // shard 3
  std::printf("key %ld lives in shard %d\n", static_cast<long>(3 * w + 9),
              set.shard_of(3 * w + 9));
  // Query inside empty shard 2: the scan skips empty shards in O(1) each
  // and finds the answer two shards down.
  std::printf("predecessor(%ld) = %ld  (cross-shard walk)\n",
              static_cast<long>(2 * w + 1),
              static_cast<long>(set.predecessor(2 * w + 1)));
  std::printf("size() = %zu, empty() = %s\n", set.size(),
              set.empty() ? "true" : "false");

  // --- Successor and range scans (src/query/) ---------------------------
  // successor walks shards upward with the same epoch-validated skip the
  // predecessor uses downward (each shard's trie answers both directions
  // natively — see core/lockfree_trie.hpp, the symmetric successor).
  std::printf("successor(%ld) = %ld  (cross-shard walk upward)\n",
              static_cast<long>(100),
              static_cast<long>(set.successor(100)));
  // Bounded ascending scan over a window spanning several shards.
  const auto keys =
      lfbt::range_scan_collect(set, 0, 3 * w + 9, /*limit=*/10);
  std::printf("range_scan([0, %ld], limit 10) ->", static_cast<long>(3 * w + 9));
  for (lfbt::Key k : keys) std::printf(" %ld", static_cast<long>(k));
  std::printf("\n");

  // --- Shared by threads, no locks --------------------------------------
  // Eight writers spray inserts across all shards while a reader keeps
  // asking for the maximum; every operation is linearizable.
  std::vector<std::thread> writers;
  for (int t = 0; t < 8; ++t) {
    writers.emplace_back([&set, t] {
      for (lfbt::Key k = t; k < (1 << 15); k += 8) set.insert(k);
    });
  }
  std::thread reader([&set] {
    long last = -1;
    for (int i = 0; i < 50000; ++i) {
      last = static_cast<long>(set.predecessor(lfbt::Key{1} << 15));
    }
    std::printf("reader's last max-below-2^15 observation: %ld\n", last);
  });
  for (auto& t : writers) t.join();
  reader.join();

  const long final_pred = static_cast<long>(set.predecessor(lfbt::Key{1} << 15));
  const std::size_t final_size = set.size();
  std::printf("final predecessor(2^15) = %ld (expect %d)\n", final_pred,
              (1 << 15) - 1);
  std::printf("final size = %zu (expect >= %d)\n", final_size, 1 << 15);
  if (final_pred != (1 << 15) - 1 || final_size < (std::size_t{1} << 15)) {
    std::printf("ERROR: a final check above does not hold\n");
    return 1;
  }
  std::printf("sharded quickstart done\n");
  return 0;
}
