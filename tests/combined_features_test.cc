// Cross-feature integration on the TPC-R environment: IN-subqueries, LIKE,
// set-op pruning, the adaptive cost gate, the irrelevant-update filter,
// serialization, and explanation — all flowing through one manager.

#include <fstream>
#include <sstream>

#include "core/explain.h"
#include "core/manager.h"
#include "core/query_api.h"
#include "core/serialize.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "types/date.h"
#include "workload/query_gen.h"
#include "workload/trace.h"

namespace erq {
namespace {

class CombinedTest : public ::testing::Test {
 protected:
  CombinedTest() {
    TpcrConfig tpcr;
    tpcr.customers_per_unit = 200;
    tpcr.seed = 41;
    auto inst = BuildTpcr(&catalog_, tpcr);
    EXPECT_TRUE(inst.ok());
    instance_ = *inst;
    EXPECT_TRUE(BuildTpcrIndexes(&catalog_).ok());
    EXPECT_TRUE(stats_.AnalyzeAll(catalog_).ok());
    EmptyResultConfig config;
    config.c_cost = 0.0;
    config.invalidation = InvalidationMode::kFilterIrrelevant;
    manager_ = std::make_unique<EmptyResultManager>(&catalog_, &stats_,
                                                    config);
  }

  Catalog catalog_;
  StatsCatalog stats_;
  TpcrInstance instance_;
  std::unique_ptr<EmptyResultManager> manager_;
};

TEST_F(CombinedTest, SubqueryOverTpcr) {
  QueryGenerator gen(&instance_, 9);
  Q1Spec spec = gen.GenerateQ1(1, 1, /*want_empty=*/true);
  std::string d = DateToString(spec.dates[0]);
  std::string p = std::to_string(spec.parts[0]);
  // "orders placed on day d whose key sold part p" — empty by choice of
  // (d, p); phrased as a subquery.
  std::string sql =
      "select * from orders o where o.orderdate = DATE '" + d +
      "' and o.orderkey in (select orderkey from lineitem where partkey = " +
      p + ")";
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome first,
                           manager_->Execute(QueryRequest::Sql(sql)));
  EXPECT_TRUE(first.executed);
  EXPECT_TRUE(first.result_empty);
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome second,
                           manager_->Execute(QueryRequest::Sql(sql)));
  EXPECT_TRUE(second.detected_empty);
  // The equivalent plain join is covered by the same knowledge.
  std::string join_sql =
      "select * from orders o, lineitem l where o.orderkey = l.orderkey "
      "and o.orderdate = DATE '" + d + "' and l.partkey = " + p;
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome third,
                           manager_->Execute(QueryRequest::Sql(join_sql)));
  EXPECT_TRUE(third.detected_empty);
}

TEST_F(CombinedTest, LikeOnCustomerNames) {
  // Customer names are "Customer#<id>": a 'Nobody%' prefix is empty.
  ERQ_ASSERT_OK_AND_ASSIGN(
      QueryOutcome first,
      manager_->Execute(QueryRequest::Sql(
          "select * from customer where name like 'Nobody%'")));
  EXPECT_TRUE(first.executed);
  EXPECT_TRUE(first.result_empty);
  ERQ_ASSERT_OK_AND_ASSIGN(
      QueryOutcome second,
      manager_->Execute(QueryRequest::Sql(
          "select * from customer where name like 'NobodyX%'")));
  EXPECT_TRUE(second.detected_empty) << "narrower prefix covered";
  ERQ_ASSERT_OK_AND_ASSIGN(
      QueryOutcome real,
      manager_->Execute(QueryRequest::Sql(
          "select * from customer where name like 'Customer#1%'")));
  EXPECT_FALSE(real.result_empty);
}

TEST_F(CombinedTest, PruneUnionOfSubqueryAndLike) {
  QueryGenerator gen(&instance_, 10);
  Q1Spec spec = gen.GenerateQ1(1, 1, /*want_empty=*/true);
  std::string d = DateToString(spec.dates[0]);
  std::string p = std::to_string(spec.parts[0]);
  std::string empty_branch =
      "select o.orderkey from orders o where o.orderdate = DATE '" + d +
      "' and o.orderkey in (select orderkey from lineitem where partkey = " +
      p + ")";
  ERQ_ASSERT_OK(manager_->Execute(QueryRequest::Sql(empty_branch)).status());
  ERQ_ASSERT_OK_AND_ASSIGN(
      QueryOutcome pruned,
      manager_->Execute(QueryRequest::Sql(
          empty_branch +
          " union select custkey from customer where custkey < 5")));
  EXPECT_TRUE(pruned.executed);
  EXPECT_EQ(pruned.branches_pruned, 1u);
  EXPECT_EQ(pruned.result_rows, 5u);
}

TEST_F(CombinedTest, SerializeSurvivesRestart) {
  QueryGenerator gen(&instance_, 11);
  std::vector<std::string> sqls;
  for (int i = 0; i < 5; ++i) {
    sqls.push_back(gen.GenerateQ1(2, 1, /*want_empty=*/true).ToSql());
    ERQ_ASSERT_OK(manager_->Execute(QueryRequest::Sql(sqls.back())).status());
  }
  std::string blob = SerializeCache(manager_->detector().cache());

  // "Restart": a fresh manager over the same catalog, warmed from disk.
  EmptyResultConfig config;
  config.c_cost = 0.0;
  EmptyResultManager fresh(&catalog_, &stats_, config);
  auto n = DeserializeInto(blob, &fresh.detector().cache());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, manager_->detector().cache().size());
  for (const std::string& sql : sqls) {
    ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome outcome,
                             fresh.Execute(QueryRequest::Sql(sql)));
    EXPECT_TRUE(outcome.detected_empty) << sql;
  }
}

TEST_F(CombinedTest, ExplainAfterManagerExecution) {
  QueryGenerator gen(&instance_, 12);
  Q1Spec spec = gen.GenerateQ1(1, 1, /*want_empty=*/true);
  ERQ_ASSERT_OK_AND_ASSIGN(PhysOpPtr plan, manager_->Prepare(spec.ToSql()));
  ERQ_ASSERT_OK(Executor::Run(plan).status());
  ERQ_ASSERT_OK_AND_ASSIGN(EmptyResultExplanation explanation,
                           ExplainEmptyResult(plan));
  EXPECT_FALSE(explanation.minimal_causes.empty());
  EXPECT_NE(explanation.ToString().find("Minimal zero result"),
            std::string::npos);
}

TEST_F(CombinedTest, MixedTraceWithQ2ReplaysCorrectly) {
  TraceConfig config;
  config.total_queries = 120;
  config.q2_fraction = 0.5;
  config.seed = 13;
  std::vector<TraceQuery> trace = GenerateCrmTrace(instance_, config);
  size_t q2_count = 0;
  for (const TraceQuery& q : trace) {
    if (q.sql.find("customer c") != std::string::npos) ++q2_count;
    ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome outcome,
                             manager_->Execute(QueryRequest::Sql(q.sql)));
    EXPECT_EQ(outcome.result_empty, q.expect_empty) << q.sql;
  }
  EXPECT_GT(q2_count, 20u) << "Q2 templates should appear in the mix";
  EXPECT_GT(manager_->stats_snapshot().detected_empty, 0u);
}

TEST_F(CombinedTest, UpdateFilterKeepsSubqueryKnowledge) {
  QueryGenerator gen(&instance_, 14);
  Q1Spec spec = gen.GenerateQ1(1, 1, /*want_empty=*/true);
  std::string d = DateToString(spec.dates[0]);
  std::string p = std::to_string(spec.parts[0]);
  std::string sql =
      "select * from orders o where o.orderdate = DATE '" + d +
      "' and o.orderkey in (select orderkey from lineitem where partkey = " +
      p + ")";
  ERQ_ASSERT_OK(manager_->Execute(QueryRequest::Sql(sql)).status());
  size_t before = manager_->detector().cache().size();
  ASSERT_GT(before, 0u);
  // Insert a lineitem for a *different* part: irrelevant to the stored
  // part's lineitem constraint (partkey = p).
  ERQ_ASSERT_OK(catalog_.AppendRows(
      "lineitem",
      {{Value::Int(0), Value::Int(instance_.config.num_parts + 99),
        Value::Int(1), Value::Double(1.0)}}));
  EXPECT_EQ(manager_->detector().cache().size(), before)
      << "irrelevant insert should not drop subquery-derived parts";
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome again,
                           manager_->Execute(QueryRequest::Sql(sql)));
  EXPECT_TRUE(again.detected_empty);
}

}  // namespace
}  // namespace erq
