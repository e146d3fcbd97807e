#include "core/update_filter.h"

#include <random>

#include "core/manager.h"
#include "core/query_api.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace erq {
namespace {

using erq::testing::FixtureDb;

Schema XySchema() {
  return Schema({{"x", DataType::kInt64}, {"y", DataType::kInt64}});
}

AtomicQueryPart RangePart(const char* rel, const char* col, int64_t lo,
                          int64_t hi) {
  return AtomicQueryPart(
      RelationSet({rel}),
      Conjunction::Make({PrimitiveTerm::MakeInterval(
          ColumnId::Make(rel, col),
          ValueInterval::Range(Value::Int(lo), true, Value::Int(hi), true))}));
}

TEST(UpdateFilterTest, UnrelatedRelationIsIrrelevant) {
  AtomicQueryPart part = RangePart("t", "x", 0, 10);
  EXPECT_FALSE(InsertIsRelevant(part, "u", XySchema(), {Value::Int(5),
                                                        Value::Int(5)}));
}

TEST(UpdateFilterTest, RowOutsideConstraintIsIrrelevant) {
  AtomicQueryPart part = RangePart("t", "x", 0, 10);
  // x = 50 cannot satisfy x in [0, 10]: the stored part stays valid.
  EXPECT_FALSE(InsertIsRelevant(part, "t", XySchema(),
                                {Value::Int(50), Value::Int(1)}));
}

TEST(UpdateFilterTest, RowInsideConstraintIsRelevant) {
  AtomicQueryPart part = RangePart("t", "x", 0, 10);
  EXPECT_TRUE(InsertIsRelevant(part, "t", XySchema(),
                               {Value::Int(5), Value::Int(1)}));
}

TEST(UpdateFilterTest, NullNeverSatisfiesComparisons) {
  AtomicQueryPart part = RangePart("t", "x", 0, 10);
  EXPECT_FALSE(InsertIsRelevant(part, "t", XySchema(),
                                {Value::Null(), Value::Int(1)}));
}

TEST(UpdateFilterTest, NotEqualTermRefutes) {
  AtomicQueryPart part(
      RelationSet({"t"}),
      Conjunction::Make({PrimitiveTerm::MakeNotEqual(ColumnId::Make("t", "x"),
                                                     Value::Int(5))}));
  EXPECT_FALSE(InsertIsRelevant(part, "t", XySchema(),
                                {Value::Int(5), Value::Int(0)}));
  EXPECT_TRUE(InsertIsRelevant(part, "t", XySchema(),
                               {Value::Int(6), Value::Int(0)}));
}

TEST(UpdateFilterTest, JoinTermsAreConservativelyRelevant) {
  // x in [0,10] on t plus a join term t.x = u.z: a row with x = 5 may join.
  AtomicQueryPart part(
      RelationSet({"t", "u"}),
      Conjunction::Make(
          {PrimitiveTerm::MakeInterval(
               ColumnId::Make("t", "x"),
               ValueInterval::Range(Value::Int(0), true, Value::Int(10),
                                    true)),
           PrimitiveTerm::MakeColCol(ColumnId::Make("t", "x"), CompareOp::kEq,
                                     ColumnId::Make("u", "z"))}));
  EXPECT_TRUE(InsertIsRelevant(part, "t", XySchema(),
                               {Value::Int(5), Value::Int(0)}));
  EXPECT_FALSE(InsertIsRelevant(part, "t", XySchema(),
                                {Value::Int(99), Value::Int(0)}));
  // Inserting into u: no single-relation constraint on u -> relevant.
  Schema u_schema({{"z", DataType::kInt64}});
  EXPECT_TRUE(InsertIsRelevant(part, "u", u_schema, {Value::Int(1)}));
}

TEST(UpdateFilterTest, SelfJoinOccurrencesCheckedIndependently) {
  // Part over {t, t#2} with x constrained differently per occurrence.
  AtomicQueryPart part(
      RelationSet({"t", "t#2"}),
      Conjunction::Make(
          {PrimitiveTerm::MakeInterval(ColumnId::Make("t", "x"),
                                       ValueInterval::Point(Value::Int(1))),
           PrimitiveTerm::MakeInterval(ColumnId::Make("t#2", "x"),
                                       ValueInterval::Point(Value::Int(2)))}));
  // A row with x = 1 satisfies occurrence "t" -> relevant.
  EXPECT_TRUE(InsertIsRelevant(part, "t", XySchema(),
                               {Value::Int(1), Value::Int(0)}));
  // x = 3 satisfies neither occurrence -> irrelevant.
  EXPECT_FALSE(InsertIsRelevant(part, "t", XySchema(),
                                {Value::Int(3), Value::Int(0)}));
}

TEST(UpdateFilterTest, BatchFormAnySemantics) {
  AtomicQueryPart part = RangePart("t", "x", 0, 10);
  std::vector<Row> rows = {{Value::Int(50), Value::Int(0)},
                           {Value::Int(60), Value::Int(0)}};
  EXPECT_FALSE(InsertsAreRelevant(part, "t", XySchema(), rows));
  rows.push_back({Value::Int(3), Value::Int(0)});
  EXPECT_TRUE(InsertsAreRelevant(part, "t", XySchema(), rows));
}

// ---- End-to-end behavior through the manager ----

class FilteredManagerTest : public ::testing::Test {
 protected:
  FilteredManagerTest() {
    EmptyResultConfig config;
    config.c_cost = 0.0;
    config.invalidation = InvalidationMode::kFilterIrrelevant;
    manager_ = std::make_unique<EmptyResultManager>(&db_.catalog(),
                                                    &db_.stats(), config);
  }

  FixtureDb db_;
  std::unique_ptr<EmptyResultManager> manager_;
};

TEST_F(FilteredManagerTest, IrrelevantInsertKeepsCache) {
  ERQ_ASSERT_OK(
      manager_->Execute(
          QueryRequest::Sql("select * from A where a > 100")).status());
  ASSERT_EQ(manager_->detector().cache().size(), 1u);
  // Insert a row with a = 50: cannot satisfy a > 100.
  ERQ_ASSERT_OK(db_.catalog().AppendRows(
      "A", {{Value::Int(50), Value::Int(0), Value::Int(0)}}));
  EXPECT_EQ(manager_->detector().cache().size(), 1u)
      << "irrelevant insert must not invalidate";
  // Detection still works — and is still correct.
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome outcome,
                           manager_->Execute(QueryRequest::Sql(
                               "select * from A where a > 100")));
  EXPECT_TRUE(outcome.detected_empty);
}

TEST_F(FilteredManagerTest, RelevantInsertInvalidates) {
  ERQ_ASSERT_OK(
      manager_->Execute(
          QueryRequest::Sql("select * from A where a > 100")).status());
  ERQ_ASSERT_OK(db_.catalog().AppendRows(
      "A", {{Value::Int(200), Value::Int(0), Value::Int(0)}}));
  EXPECT_EQ(manager_->detector().cache().size(), 0u);
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome outcome,
                           manager_->Execute(QueryRequest::Sql(
                               "select * from A where a > 100")));
  EXPECT_TRUE(outcome.executed);
  EXPECT_EQ(outcome.result_rows, 1u);
}

TEST_F(FilteredManagerTest, DeletionsNeverInvalidate) {
  ERQ_ASSERT_OK(
      manager_->Execute(
          QueryRequest::Sql("select * from A where a > 100")).status());
  ASSERT_EQ(manager_->detector().cache().size(), 1u);
  ERQ_ASSERT_OK_AND_ASSIGN(
      size_t removed,
      db_.catalog().DeleteRows(
          "A", [](const Row& row) { return row[0].AsInt() < 15; }));
  EXPECT_EQ(removed, 5u);
  EXPECT_EQ(manager_->detector().cache().size(), 1u)
      << "deletions cannot un-empty a result";
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome outcome,
                           manager_->Execute(QueryRequest::Sql(
                               "select * from A where a > 100")));
  EXPECT_TRUE(outcome.detected_empty);
}

TEST_F(FilteredManagerTest, MixedBatchDropsOnlyAffectedParts) {
  ERQ_ASSERT_OK(
      manager_->Execute(
          QueryRequest::Sql("select * from A where a > 100")).status());
  ERQ_ASSERT_OK(
      manager_->Execute(
          QueryRequest::Sql("select * from A where b = 55")).status());
  ERQ_ASSERT_OK(
      manager_->Execute(
          QueryRequest::Sql("select * from B where d = 99")).status());
  ASSERT_EQ(manager_->detector().cache().size(), 3u);
  // New A-row: a = 120 (hits "a > 100"), b = 0 (misses "b = 55").
  ERQ_ASSERT_OK(db_.catalog().AppendRows(
      "A", {{Value::Int(120), Value::Int(0), Value::Int(0)}}));
  EXPECT_EQ(manager_->detector().cache().size(), 2u);
  EXPECT_TRUE(
      manager_->Execute(
          QueryRequest::Sql("select * from A where b = 55"))->detected_empty);
  EXPECT_TRUE(
      manager_->Execute(
          QueryRequest::Sql("select * from B where d = 99"))->detected_empty);
  EXPECT_TRUE(
      manager_->Execute(
          QueryRequest::Sql("select * from A where a > 100"))->executed);
}

TEST_F(FilteredManagerTest, DropTableStillClearsItsParts) {
  ERQ_ASSERT_OK(
      manager_->Execute(
          QueryRequest::Sql("select * from C where f = 99")).status());
  ASSERT_EQ(manager_->detector().cache().size(), 1u);
  ERQ_ASSERT_OK(db_.catalog().DropTable("C"));
  EXPECT_EQ(manager_->detector().cache().size(), 0u);
}

// Soundness sweep: under the filter, detection must still never produce a
// false positive even across interleaved inserts/deletes.
TEST_F(FilteredManagerTest, NoFalsePositivesAcrossUpdateStream) {
  std::mt19937_64 rng(9);
  for (int round = 0; round < 30; ++round) {
    int64_t v = static_cast<int64_t>(rng() % 400);
    std::string sql = "select * from A where a = " + std::to_string(v);
    auto outcome = manager_->Execute(QueryRequest::Sql(sql));
    ASSERT_TRUE(outcome.ok());
    if (outcome->detected_empty) {
      auto plan = manager_->Prepare(sql);
      ASSERT_TRUE(plan.ok());
      auto forced = Executor::Run(*plan);
      ASSERT_TRUE(forced.ok());
      ASSERT_TRUE(forced->rows.empty()) << "FALSE POSITIVE: " << sql;
    }
    // Random mutation.
    switch (rng() % 3) {
      case 0:
        {
          std::vector<Row> rows;
          rows.push_back({Value::Int(static_cast<int64_t>(rng() % 400)),
                          Value::Int(0), Value::Int(0)});
          ERQ_ASSERT_OK(db_.catalog().AppendRows("A", std::move(rows)));
        }
        break;
      case 1: {
        int64_t cut = static_cast<int64_t>(rng() % 400);
        ERQ_ASSERT_OK(db_.catalog()
                          .DeleteRows("A",
                                      [cut](const Row& row) {
                                        return row[0].AsInt() == cut;
                                      })
                          .status());
        break;
      }
      default:
        break;  // no mutation this round
    }
  }
}

}  // namespace
}  // namespace erq
