// §2.5 partial detection: set-operation branches that are provably empty
// are pruned so only the remaining branch executes.

#include "core/manager.h"
#include "core/query_api.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace erq {
namespace {

using erq::testing::FixtureDb;
using erq::testing::Sorted;

class PruneTest : public ::testing::Test {
 protected:
  PruneTest() {
    EmptyResultConfig config;
    config.c_cost = 0.0;
    manager_ = std::make_unique<EmptyResultManager>(&db_.catalog(),
                                                    &db_.stats(), config);
  }

  void Learn(const std::string& sql) {
    auto outcome = manager_->Execute(QueryRequest::Sql(sql));
    ASSERT_TRUE(outcome.ok());
    ASSERT_TRUE(outcome->result_empty) << sql;
  }

  FixtureDb db_;
  std::unique_ptr<EmptyResultManager> manager_;
};

TEST_F(PruneTest, UnionWithEmptyLeftBranchPrunes) {
  Learn("select * from A where a > 100");
  ERQ_ASSERT_OK_AND_ASSIGN(
      QueryOutcome outcome,
      manager_->Execute(QueryRequest::Sql(
          "select a from A where a > 100 "
          "union select d from B")));
  EXPECT_FALSE(outcome.detected_empty);
  EXPECT_TRUE(outcome.executed);
  EXPECT_EQ(outcome.branches_pruned, 1u);
  EXPECT_EQ(outcome.result_rows, 5u);  // B.d = {0..4}
  // The executed plan must not contain the Union operator anymore.
  ASSERT_NE(outcome.plan, nullptr);
  EXPECT_EQ(outcome.plan->ToString().find("Union"), std::string::npos)
      << outcome.plan->ToString();
}

TEST_F(PruneTest, UnionDistinctStillDeduplicates) {
  Learn("select * from B where d = 999");
  // A.c has duplicates (each of 0..4 twice); UNION must dedup even after
  // the empty branch is pruned.
  ERQ_ASSERT_OK_AND_ASSIGN(
      QueryOutcome outcome,
      manager_->Execute(QueryRequest::Sql(
          "select c from A union select d from B where d = 999")));
  EXPECT_EQ(outcome.branches_pruned, 1u);
  EXPECT_EQ(outcome.result_rows, 5u) << "UNION dedup must be preserved";
}

TEST_F(PruneTest, UnionAllKeepsDuplicatesAfterPrune) {
  Learn("select * from B where d = 999");
  ERQ_ASSERT_OK_AND_ASSIGN(
      QueryOutcome outcome,
      manager_->Execute(QueryRequest::Sql(
          "select c from A union all select d from B where d = 999")));
  EXPECT_EQ(outcome.branches_pruned, 1u);
  EXPECT_EQ(outcome.result_rows, 10u);
}

TEST_F(PruneTest, ExceptWithEmptyRightBranchPrunes) {
  Learn("select * from B where d = 999");
  ERQ_ASSERT_OK_AND_ASSIGN(
      QueryOutcome outcome,
      manager_->Execute(QueryRequest::Sql(
          "select c from A except select d from B where d = 999")));
  EXPECT_EQ(outcome.branches_pruned, 1u);
  EXPECT_EQ(outcome.result_rows, 5u);  // EXCEPT dedups left
  ASSERT_NE(outcome.plan, nullptr);
  EXPECT_EQ(outcome.plan->ToString().find("Except"), std::string::npos);
}

TEST_F(PruneTest, ExceptAllWithEmptyRightKeepsMultiplicity) {
  Learn("select * from B where d = 999");
  ERQ_ASSERT_OK_AND_ASSIGN(
      QueryOutcome outcome,
      manager_->Execute(QueryRequest::Sql(
          "select c from A except all select d from B where d = 999")));
  EXPECT_EQ(outcome.branches_pruned, 1u);
  EXPECT_EQ(outcome.result_rows, 10u);
}

TEST_F(PruneTest, NoPruningWithoutKnowledge) {
  ERQ_ASSERT_OK_AND_ASSIGN(
      QueryOutcome outcome,
      manager_->Execute(QueryRequest::Sql(
          "select a from A where a > 100 union select d from B")));
  EXPECT_EQ(outcome.branches_pruned, 0u);
  EXPECT_EQ(outcome.result_rows, 5u);
}

TEST_F(PruneTest, PrunedResultMatchesUnprunedExecution) {
  // Semantic equivalence check: run the same set-op query against a
  // detection-disabled manager and compare rows.
  EmptyResultConfig off;
  off.detection_enabled = false;
  FixtureDb db2;
  EmptyResultManager baseline(&db2.catalog(), &db2.stats(), off);

  Learn("select * from A where b = 135");
  std::string sql =
      "select a from A where b = 135 union select d from B where d < 3";
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome pruned,
                           manager_->Execute(QueryRequest::Sql(sql)));
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome plain,
                           baseline.Execute(QueryRequest::Sql(sql)));
  EXPECT_EQ(pruned.branches_pruned, 1u);
  EXPECT_EQ(Sorted(pruned.result.rows), Sorted(plain.result.rows));
}

TEST_F(PruneTest, FullyEmptySetOpStillDetectedOutright) {
  Learn("select * from A where a > 100");
  Learn("select * from B where d = 999");
  ERQ_ASSERT_OK_AND_ASSIGN(
      QueryOutcome outcome,
      manager_->Execute(QueryRequest::Sql(
          "select a from A where a > 100 "
          "union select d from B where d = 999")));
  EXPECT_TRUE(outcome.detected_empty);
  EXPECT_FALSE(outcome.executed);
}

TEST_F(PruneTest, NestedSetOpsPruneRecursively) {
  Learn("select * from A where a > 100");
  Learn("select * from B where d = 999");
  // ((empty UNION B) EXCEPT empty) -> Distinct(Distinct(B-scan)).
  ERQ_ASSERT_OK_AND_ASSIGN(
      QueryOutcome outcome,
      manager_->Execute(QueryRequest::Sql(
          "select a from A where a > 100 "
          "union select d from B "
          "except select d from B where d = 999")));
  EXPECT_EQ(outcome.branches_pruned, 2u);
  EXPECT_EQ(outcome.result_rows, 5u);
  EXPECT_EQ(manager_->stats_snapshot().branches_pruned, 2u);
}

}  // namespace
}  // namespace erq
