#include "verify/oracle.hpp"

#include <gtest/gtest.h>

#include "baselines/locked_map.hpp"

namespace lfbt {
namespace {

TEST(Oracle, AcceptsAnswerFromCurrentVersion) {
  LockedStdSet set(64);
  HistoryClock clock;
  SingleWriterOracle oracle;
  oracle.writer_apply(set, OpKind::kInsert, 5, clock);
  std::vector<SingleWriterOracle::Query> qs;
  SingleWriterOracle::reader_query(set, 10, clock, qs);
  EXPECT_EQ(qs[0].answer, 5);
  EXPECT_EQ(oracle.validate(qs), -1);
}

TEST(Oracle, AcceptsAnswerFromOverlappingOldVersion) {
  // A query spanning a delete may legitimately answer with the pre-delete
  // state.
  SingleWriterOracle oracle(/*initial_state=*/0b100000);  // {5}
  SingleWriterOracle::Query q;
  q.t1 = 1;
  q.y = 10;
  q.answer = 5;  // old state
  q.t2 = 100;
  EXPECT_TRUE(oracle.query_ok(q));
}

TEST(Oracle, RejectsAnswerNoVersionJustifies) {
  SingleWriterOracle oracle(/*initial_state=*/0b100000);  // {5}
  SingleWriterOracle::Query q;
  q.t1 = 1;
  q.y = 10;
  q.answer = 7;  // 7 was never present
  q.t2 = 100;
  EXPECT_FALSE(oracle.query_ok(q));
}

TEST(Oracle, RejectsAnswerFromNonOverlappingVersion) {
  LockedStdSet set(64);
  HistoryClock clock;
  SingleWriterOracle oracle;
  oracle.writer_apply(set, OpKind::kInsert, 5, clock);   // {5}
  oracle.writer_apply(set, OpKind::kErase, 5, clock);    // {}
  oracle.writer_apply(set, OpKind::kInsert, 3, clock);   // {3}
  // Query strictly after everything: answering 5 is stale.
  SingleWriterOracle::Query q;
  q.t1 = clock.tick();
  q.y = 10;
  q.answer = 5;
  q.t2 = clock.tick();
  EXPECT_FALSE(oracle.query_ok(q));
  q.answer = 3;
  EXPECT_TRUE(oracle.query_ok(q));
}

TEST(Oracle, VersionsTrackWriterHistory) {
  LockedStdSet set(64);
  HistoryClock clock;
  SingleWriterOracle oracle;
  oracle.writer_apply(set, OpKind::kInsert, 1, clock);
  oracle.writer_apply(set, OpKind::kInsert, 2, clock);
  oracle.writer_apply(set, OpKind::kErase, 1, clock);
  ASSERT_EQ(oracle.versions().size(), 4u);
  EXPECT_EQ(oracle.versions()[0].state, 0u);
  EXPECT_EQ(oracle.versions()[1].state, 0b10u);
  EXPECT_EQ(oracle.versions()[2].state, 0b110u);
  EXPECT_EQ(oracle.versions()[3].state, 0b100u);
}

}  // namespace
}  // namespace lfbt
