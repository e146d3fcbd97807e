// IN (SELECT ...) subqueries: rewritten to semi-joins (the "nested queries
// that can be rewritten into such a form" the paper's §2 includes), which
// are emptiness-equivalent to joins and so participate fully in
// empty-result detection.

#include <random>

#include "core/manager.h"
#include "core/query_api.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace erq {
namespace {

using erq::testing::FixtureDb;
using erq::testing::Sorted;

TEST(SubqueryParseTest, AcceptedInWhere) {
  auto stmt = Parser::Parse(
      "select * from A where A.c in (select d from B where e > 3)");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  const SelectStatement& s = *(*stmt)->select;
  ASSERT_EQ(s.in_subqueries.size(), 1u);
  EXPECT_NE(s.where, nullptr);
  EXPECT_NE(s.ToString().find("$subq0"), std::string::npos);
}

TEST(SubqueryParseTest, NotInSubqueryRejected) {
  auto stmt = Parser::Parse(
      "select * from A where c not in (select d from B)");
  EXPECT_FALSE(stmt.ok());
}

TEST(SubqueryParseTest, SubqueryOutsideWhereRejected) {
  EXPECT_FALSE(
      Parser::Parse("select a in (select d from B) from A").ok());
}

TEST(SubqueryPlanTest, NestedMarkerRejected) {
  FixtureDb db;
  auto plan = db.Plan(
      "select * from A where a = 1 or c in (select d from B)");
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kNotSupported);
}

TEST(SubqueryPlanTest, MultiColumnSubqueryRejected) {
  FixtureDb db;
  auto plan = db.Prepare("select * from A where c in (select d, e from B)");
  EXPECT_FALSE(plan.ok());
}

TEST(SubqueryExecTest, BasicSemantics) {
  FixtureDb db;
  // B.e = d*d for d in 0..4 -> e in {0,1,4,9,16}; d with e > 3 -> {2,3,4}.
  ERQ_ASSERT_OK_AND_ASSIGN(
      ExecutionResult r,
      db.Run("select a from A where A.c in (select d from B where e > 3)"));
  // A.c = a % 5 in {2,3,4}: a in {12,13,14,17,18,19}.
  EXPECT_EQ(r.rows.size(), 6u);
}

TEST(SubqueryExecTest, MatchesManualJoinDistinct) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(
      ExecutionResult sub,
      db.Run("select a from A where A.c in (select d from B where d < 3)"));
  ERQ_ASSERT_OK_AND_ASSIGN(
      ExecutionResult join,
      db.Run("select distinct a from A, B where A.c = B.d and B.d < 3"));
  EXPECT_EQ(Sorted(sub.rows), Sorted(join.rows));
}

TEST(SubqueryExecTest, EmptySubqueryYieldsNoRows) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(
      ExecutionResult r,
      db.Run("select * from A where c in (select d from B where d > 99)"));
  EXPECT_TRUE(r.rows.empty());
}

TEST(SubqueryExecTest, NullsNeverMatch) {
  Catalog catalog;
  auto l = catalog.CreateTable("L", Schema({{"k", DataType::kInt64}}));
  auto r = catalog.CreateTable("R", Schema({{"k", DataType::kInt64}}));
  ASSERT_TRUE(l.ok() && r.ok());
  l.value()->AppendUnchecked({Value::Null()});
  l.value()->AppendUnchecked({Value::Int(1)});
  r.value()->AppendUnchecked({Value::Null()});
  r.value()->AppendUnchecked({Value::Int(1)});
  StatsCatalog stats;
  ASSERT_TRUE(stats.AnalyzeAll(catalog).ok());
  auto stmt = Parser::Parse("select * from L where k in (select k from R)");
  ASSERT_TRUE(stmt.ok());
  Planner planner(&catalog);
  auto planned = planner.PlanStatement(**stmt);
  ASSERT_TRUE(planned.ok()) << planned.status();
  Optimizer optimizer(&catalog, &stats);
  auto plan = optimizer.Optimize(planned->root);
  ASSERT_TRUE(plan.ok());
  auto result = Executor::Run(*plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 1u);
}

TEST(SubqueryExecTest, WithOuterPredicatesAndProjection) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(
      ExecutionResult r,
      db.Run("select b from A where a >= 15 and "
             "c in (select f from C) order by b"));
  // c in {0,1,2} and a >= 15: a in {15,16,17} -> b in {150,160,170}.
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 150);
}

class SubqueryDetectTest : public ::testing::Test {
 protected:
  SubqueryDetectTest() {
    EmptyResultConfig config;
    config.c_cost = 0.0;
    manager_ = std::make_unique<EmptyResultManager>(&db_.catalog(),
                                                    &db_.stats(), config);
  }
  FixtureDb db_;
  std::unique_ptr<EmptyResultManager> manager_;
};

TEST_F(SubqueryDetectTest, RepeatDetectedWithoutExecution) {
  std::string sql =
      "select * from A where c in (select d from B where e = 123)";
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome first,
                           manager_->Execute(QueryRequest::Sql(sql)));
  EXPECT_TRUE(first.executed);
  EXPECT_TRUE(first.result_empty);
  EXPECT_GT(first.aqps_recorded, 0u);
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome second,
                           manager_->Execute(QueryRequest::Sql(sql)));
  EXPECT_TRUE(second.detected_empty) << second.ToString();
}

TEST_F(SubqueryDetectTest, SubqueryKnowledgeTransfersToPlainJoin) {
  // The semi join decomposes to the same atomic parts as the join, so
  // knowledge flows in both directions.
  ERQ_ASSERT_OK(
      manager_->Execute(
          QueryRequest::Sql("select * from A, B where A.c = B.d and B.e = 123"))
          .status());
  ERQ_ASSERT_OK_AND_ASSIGN(
      QueryOutcome outcome,
      manager_->Execute(QueryRequest::Sql(
          "select * from A where c in (select d from B where e = 123)")));
  EXPECT_TRUE(outcome.detected_empty);
}

TEST_F(SubqueryDetectTest, JoinKnowledgeFromSubquery) {
  ERQ_ASSERT_OK(
      manager_
          ->Execute(QueryRequest::Sql(
              "select * from A where c in (select d from B where e = 123)"))
          .status());
  ERQ_ASSERT_OK_AND_ASSIGN(
      QueryOutcome outcome,
      manager_->Execute(QueryRequest::Sql(
          "select * from A, B where A.c = B.d and B.e = 123")));
  EXPECT_TRUE(outcome.detected_empty);
}

TEST_F(SubqueryDetectTest, NarrowedOuterPredicateCovered) {
  ERQ_ASSERT_OK(
      manager_
          ->Execute(QueryRequest::Sql(
              "select * from A where c in (select d from B where e = 123)"))
          .status());
  ERQ_ASSERT_OK_AND_ASSIGN(
      QueryOutcome outcome,
      manager_->Execute(QueryRequest::Sql(
          "select a from A where a = 12 and "
          "c in (select d from B where e = 123)")));
  EXPECT_TRUE(outcome.detected_empty);
}

TEST_F(SubqueryDetectTest, AliasCollisionFallsBackToExecution) {
  // The same alias "A" appears in both scopes: decomposition declines
  // (NotSupported), so the query executes — never an unsound detection.
  std::string sql =
      "select * from A where a in (select a from A where b = 135)";
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome first,
                           manager_->Execute(QueryRequest::Sql(sql)));
  EXPECT_TRUE(first.executed);
  EXPECT_TRUE(first.result_empty);
  // The inner selection (b = 135 over a single scan) has no collision and
  // is legitimately harvested; only the whole-query part is declined.
  EXPECT_EQ(first.aqps_recorded, 1u);
  // The stored inner part covers the collided query via occurrence
  // remapping... except the whole-query part is never decomposed (the
  // collision makes it kNotSupported), so the repeat still executes.
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome second,
                           manager_->Execute(QueryRequest::Sql(sql)));
  EXPECT_TRUE(second.executed);
}

TEST_F(SubqueryDetectTest, DistinctAliasesInBothScopesWork) {
  std::string sql =
      "select * from A x where x.a in (select y.a from A y where y.b = 135)";
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome first,
                           manager_->Execute(QueryRequest::Sql(sql)));
  EXPECT_TRUE(first.executed);
  EXPECT_TRUE(first.result_empty);
  EXPECT_GT(first.aqps_recorded, 0u);
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome second,
                           manager_->Execute(QueryRequest::Sql(sql)));
  EXPECT_TRUE(second.detected_empty);
}

TEST_F(SubqueryDetectTest, NoFalsePositivesOnSubqueryStream) {
  std::mt19937_64 rng(5);
  for (int i = 0; i < 60; ++i) {
    int64_t e = static_cast<int64_t>(rng() % 20);
    int64_t lo = static_cast<int64_t>(rng() % 20);
    std::string sql = "select * from A where a > " + std::to_string(lo + 5) +
                      " and c in (select d from B where e = " +
                      std::to_string(e) + ")";
    ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome outcome,
                             manager_->Execute(QueryRequest::Sql(sql)));
    if (outcome.detected_empty) {
      ERQ_ASSERT_OK_AND_ASSIGN(PhysOpPtr plan, manager_->Prepare(sql));
      ERQ_ASSERT_OK_AND_ASSIGN(ExecutionResult forced, Executor::Run(plan));
      ASSERT_TRUE(forced.rows.empty()) << "FALSE POSITIVE: " << sql;
    }
  }
}

}  // namespace
}  // namespace erq
