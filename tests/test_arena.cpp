#include "sync/arena.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

namespace lfbt {
namespace {

TEST(Arena, AllocatesAlignedStorage) {
  NodeArena arena(1 << 12);
  for (std::size_t align : {1u, 2u, 8u, 16u, 64u}) {
    void* p = arena.allocate(24, align);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u) << align;
  }
}

TEST(Arena, CreateConstructsObjects) {
  NodeArena arena;
  struct Obj {
    int a;
    double b;
  };
  Obj* o = arena.create<Obj>(7, 2.5);
  EXPECT_EQ(o->a, 7);
  EXPECT_EQ(o->b, 2.5);
}

TEST(Arena, ChunkGrowthCoversLargeAllocations) {
  NodeArena arena(/*chunk_bytes=*/128);
  // Allocation larger than the chunk size must still succeed.
  void* p = arena.allocate(4096, 16);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xab, 4096);
  EXPECT_GE(arena.bytes_reserved(), 4096u);
}

TEST(Arena, DistinctArenasDoNotShareCursors) {
  NodeArena a(1 << 12), b(1 << 12);
  void* pa = a.allocate(64);
  void* pb = b.allocate(64);
  void* pa2 = a.allocate(64);
  EXPECT_NE(pa, pb);
  EXPECT_NE(pa2, pb);
}

TEST(Arena, ReuseOfFreedAddressIsDetected) {
  // Destroying an arena and creating another (possibly at the same
  // address) must not let a thread keep bump-allocating into freed
  // chunks — the generation id protects against this.
  for (int i = 0; i < 50; ++i) {
    auto* arena = new NodeArena(1 << 12);
    void* p = arena->allocate(128);
    std::memset(p, 0x5a, 128);
    delete arena;
    auto* arena2 = new NodeArena(1 << 12);
    void* q = arena2->allocate(128);
    std::memset(q, 0xa5, 128);  // would crash/ASAN if cursor were stale
    delete arena2;
  }
}

TEST(Arena, ParallelAllocationIsRaceFree) {
  NodeArena arena(1 << 16);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::vector<uint64_t*>> ptrs(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto* p = arena.create<uint64_t>(uint64_t(t) << 32 | uint64_t(i));
        ptrs[t].push_back(p);
      }
    });
  }
  for (auto& t : ts) t.join();
  // Every allocation must be distinct and retain its value.
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      ASSERT_EQ(*ptrs[t][static_cast<std::size_t>(i)], uint64_t(t) << 32 | uint64_t(i));
    }
  }
}

TEST(Arena, BytesReservedGrowsMonotonically) {
  NodeArena arena(1 << 12);
  std::size_t last = arena.bytes_reserved();
  for (int i = 0; i < 100; ++i) {
    arena.allocate(512);
    std::size_t now = arena.bytes_reserved();
    EXPECT_GE(now, last);
    last = now;
  }
  EXPECT_GE(last, 100u * 512u / 2);  // chunks cover the demand
}

}  // namespace
}  // namespace lfbt
