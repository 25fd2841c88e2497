#include "verify/linearizability.hpp"

#include <gtest/gtest.h>

namespace lfbt {
namespace {

RecordedOp op(OpKind kind, Key key, uint64_t inv, uint64_t res, int64_t ret = 0) {
  return RecordedOp{kind, key, inv, res, ret};
}

TEST(BitmaskPredecessor, Basics) {
  EXPECT_EQ(bitmask_predecessor(0, 10), kNoKey);
  EXPECT_EQ(bitmask_predecessor(0b1011, 0), kNoKey);
  EXPECT_EQ(bitmask_predecessor(0b1011, 1), 0);
  EXPECT_EQ(bitmask_predecessor(0b1011, 2), 1);
  EXPECT_EQ(bitmask_predecessor(0b1011, 3), 1);
  EXPECT_EQ(bitmask_predecessor(0b1011, 4), 3);
  EXPECT_EQ(bitmask_predecessor(0b1011, 64), 3);
}

TEST(LinChecker, EmptyHistoryIsLinearizable) {
  EXPECT_TRUE(LinearizabilityChecker::check({}, 0));
}

TEST(LinChecker, DescribeNamesTheRecordingThread) {
  RecordedOp a = op(OpKind::kInsert, 3, 1, 4);
  a.thread = 2;
  const RecordedOp b = op(OpKind::kContains, 3, 5, 6, 1);  // thread unknown
  const std::string text = describe({b, a});
  EXPECT_NE(text.find("1-4 t2 insert(3) -> 0"), std::string::npos) << text;
  EXPECT_NE(text.find("5-6 t- contains(3) -> 1"), std::string::npos) << text;
  EXPECT_LT(text.find("insert"), text.find("contains")) << text;
}

TEST(LinChecker, SequentialHistoryAccepted) {
  std::vector<RecordedOp> h = {
      op(OpKind::kInsert, 3, 1, 2),
      op(OpKind::kContains, 3, 3, 4, 1),
      op(OpKind::kPredecessor, 5, 5, 6, 3),
      op(OpKind::kErase, 3, 7, 8),
      op(OpKind::kContains, 3, 9, 10, 0),
      op(OpKind::kPredecessor, 5, 11, 12, kNoKey),
  };
  EXPECT_TRUE(LinearizabilityChecker::check(h, 0));
}

TEST(LinChecker, WrongSequentialReturnRejected) {
  std::vector<RecordedOp> h = {
      op(OpKind::kInsert, 3, 1, 2),
      op(OpKind::kContains, 3, 3, 4, 0),  // must be 1
  };
  EXPECT_FALSE(LinearizabilityChecker::check(h, 0));
}

TEST(LinChecker, ConcurrentOverlapAllowsEitherOrder) {
  // insert(3) concurrent with contains(3): both answers are legal.
  for (int64_t ret : {0, 1}) {
    std::vector<RecordedOp> h = {
        op(OpKind::kInsert, 3, 1, 4),
        op(OpKind::kContains, 3, 2, 3, ret),
    };
    EXPECT_TRUE(LinearizabilityChecker::check(h, 0)) << ret;
  }
}

TEST(LinChecker, RealTimeOrderEnforced) {
  // contains(3) completes strictly before insert(3) begins: must see 0.
  std::vector<RecordedOp> h = {
      op(OpKind::kContains, 3, 1, 2, 1),  // claims to see it early: illegal
      op(OpKind::kInsert, 3, 3, 4),
  };
  EXPECT_FALSE(LinearizabilityChecker::check(h, 0));
}

TEST(LinChecker, PredecessorFreshValueRequiresJustification) {
  // pred(10)=7 is only legal if 7 was inserted; here key 5 was.
  std::vector<RecordedOp> h = {
      op(OpKind::kInsert, 5, 1, 2),
      op(OpKind::kPredecessor, 10, 3, 4, 7),
  };
  EXPECT_FALSE(LinearizabilityChecker::check(h, 0));
}

TEST(LinChecker, PredecessorStaleValueRejected) {
  // 5 deleted before the query begins, and 3 inserted before it begins:
  // answering 5 (skipping 3) is not linearizable.
  std::vector<RecordedOp> h = {
      op(OpKind::kInsert, 5, 1, 2),
      op(OpKind::kErase, 5, 3, 4),
      op(OpKind::kInsert, 3, 5, 6),
      op(OpKind::kPredecessor, 10, 7, 8, 5),
  };
  EXPECT_FALSE(LinearizabilityChecker::check(h, 0));
}

TEST(LinChecker, PredecessorDuringConcurrentDeleteMayReturnEither) {
  std::vector<RecordedOp> h1 = {
      op(OpKind::kInsert, 5, 1, 2),
      op(OpKind::kErase, 5, 3, 6),
      op(OpKind::kPredecessor, 10, 4, 5, 5),  // delete not yet linearized
  };
  EXPECT_TRUE(LinearizabilityChecker::check(h1, 0));
  std::vector<RecordedOp> h2 = {
      op(OpKind::kInsert, 5, 1, 2),
      op(OpKind::kErase, 5, 3, 6),
      op(OpKind::kPredecessor, 10, 4, 5, kNoKey),  // delete already done
  };
  EXPECT_TRUE(LinearizabilityChecker::check(h2, 0));
}

TEST(LinChecker, InitialStateRespected) {
  std::vector<RecordedOp> h = {
      op(OpKind::kContains, 2, 1, 2, 1),
      op(OpKind::kPredecessor, 2, 3, 4, 0),
  };
  EXPECT_TRUE(LinearizabilityChecker::check(h, 0b101));
  EXPECT_FALSE(LinearizabilityChecker::check(h, 0));
}

TEST(LinChecker, ClassicNonLinearizableInterleavingRejected) {
  // Two contains bracketing each other see states that no single order
  // explains: A sees 3 present then (strictly later) B sees it absent,
  // then (strictly later) C sees it present again — with no intervening
  // updates after the first insert.
  std::vector<RecordedOp> h = {
      op(OpKind::kInsert, 3, 1, 2),
      op(OpKind::kContains, 3, 3, 4, 1),
      op(OpKind::kContains, 3, 5, 6, 0),  // impossible
      op(OpKind::kContains, 3, 7, 8, 1),
  };
  EXPECT_FALSE(LinearizabilityChecker::check(h, 0));
}

TEST(LinChecker, LargerInterleavedWindowAccepted) {
  // A plausibly linearizable mechanically generated overlap pattern.
  std::vector<RecordedOp> h;
  uint64_t ts = 1;
  for (int i = 0; i < 20; ++i) {
    h.push_back(op(OpKind::kInsert, i % 8, ts, ts + 3));
    h.push_back(op(OpKind::kContains, i % 8, ts + 1, ts + 2, 1));
    ts += 4;
  }
  EXPECT_TRUE(LinearizabilityChecker::check(h, 0));
}

}  // namespace
}  // namespace lfbt
