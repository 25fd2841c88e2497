// Test-side EBR teardown: a gtest global environment that drains the EBR
// limbo after the last test has run.
//
// The EBR-backed structures (the compressed trie and the trie's
// recycled query nodes) retire
// nodes into per-thread limbo lists that are swept lazily, every few
// retirements. Whatever sits in limbo when the process exits was
// historically reported by LeakSanitizer — the nodes are unlinked from
// their (possibly already destroyed) structures and freed by no one.
// Draining once after all tests, when every worker thread has joined and
// no guard can be live, is exactly the safe use of ebr::drain_unsafe()
// and makes the ASan job clean end-to-end regardless of test order.
//
// Include this header from any test binary that drives EBR-backed
// structures; the environment registers itself.
#pragma once

#include <gtest/gtest.h>

#include "sync/ebr.hpp"

namespace lfbt::testutil {

class EbrDrainEnvironment : public ::testing::Environment {
 public:
  void TearDown() override { ebr::drain_unsafe(); }
};

inline ::testing::Environment* const kEbrDrainEnv =
    ::testing::AddGlobalTestEnvironment(new EbrDrainEnvironment);

}  // namespace lfbt::testutil
