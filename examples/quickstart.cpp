// Quickstart: the lock-free binary trie public API in 60 lines.
//
//   build/examples/quickstart
//
// Shows: construction over a universe, insert/erase/contains/predecessor
// from one thread, then the same API shared by multiple threads with no
// external synchronisation. Exits 1 if the final "expect" check fails.
#include <cstdio>
#include <thread>
#include <vector>

#include "core/lockfree_trie.hpp"

int main() {
  // A dynamic set over the universe {0, ..., 2^16 - 1}.
  lfbt::LockFreeBinaryTrie set(lfbt::Key{1} << 16);

  // --- Single-threaded basics -------------------------------------------
  set.insert(100);
  set.insert(200);
  set.insert(300);
  std::printf("contains(200)      = %s\n", set.contains(200) ? "true" : "false");
  std::printf("predecessor(250)   = %ld\n", static_cast<long>(set.predecessor(250)));
  std::printf("predecessor(100)   = %ld  (keys >= y excluded; -1 = none)\n",
              static_cast<long>(set.predecessor(100)));
  set.erase(200);
  std::printf("after erase(200), predecessor(250) = %ld\n",
              static_cast<long>(set.predecessor(250)));

  // --- Shared by threads, no locks --------------------------------------
  // Four writers insert disjoint arithmetic progressions while a reader
  // continuously queries; every operation is linearizable and lock-free.
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&set, w] {
      for (lfbt::Key k = w; k < (1 << 14); k += 4) set.insert(k);
    });
  }
  std::thread reader([&set] {
    long last = -1;
    for (int i = 0; i < 100000; ++i) {
      last = static_cast<long>(set.predecessor(lfbt::Key{1} << 14));
    }
    std::printf("reader's last max-below-2^14 observation: %ld\n", last);
  });
  for (auto& t : writers) t.join();
  reader.join();

  const long final_pred = static_cast<long>(set.predecessor(lfbt::Key{1} << 14));
  std::printf("final predecessor(2^14) = %ld (expect %d)\n", final_pred,
              (1 << 14) - 1);
  if (final_pred != (1 << 14) - 1) {
    std::printf("ERROR: final predecessor is not the largest inserted key\n");
    return 1;
  }
  std::printf("quickstart done\n");
  return 0;
}
