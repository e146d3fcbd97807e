// End-to-end scenarios spanning the whole stack: the interactive
// exploration loop the paper motivates, the TPC-R experiment pipeline of
// §3.1 in miniature, and update/invalidation epochs.

#include "core/manager.h"
#include "core/query_api.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "types/date.h"
#include "workload/query_gen.h"
#include "workload/trace.h"

namespace erq {
namespace {

class TpcrIntegrationTest : public ::testing::Test {
 protected:
  TpcrIntegrationTest() {
    TpcrConfig config;
    config.customers_per_unit = 150;
    config.seed = 31;
    auto inst = BuildTpcr(&catalog_, config);
    EXPECT_TRUE(inst.ok());
    instance_ = *inst;
    EXPECT_TRUE(BuildTpcrIndexes(&catalog_).ok());
    EXPECT_TRUE(stats_.AnalyzeAll(catalog_).ok());
  }

  Catalog catalog_;
  StatsCatalog stats_;
  TpcrInstance instance_;
};

TEST_F(TpcrIntegrationTest, Q1EmptyDetectionLifecycle) {
  EmptyResultConfig config;
  config.c_cost = 0.0;
  EmptyResultManager manager(&catalog_, &stats_, config);
  QueryGenerator gen(&instance_, 77);

  Q1Spec spec = gen.GenerateQ1(2, 2, /*want_empty=*/true);
  std::string sql = spec.ToSql();

  // First run executes and harvests F = 4 atomic parts.
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome first,
                           manager.Execute(QueryRequest::Sql(sql)));
  EXPECT_TRUE(first.executed);
  EXPECT_TRUE(first.result_empty);
  EXPECT_EQ(first.aqps_recorded, spec.CombinationFactor());

  // Second run detects without executing.
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome second,
                           manager.Execute(QueryRequest::Sql(sql)));
  EXPECT_TRUE(second.detected_empty);

  // A sub-query built from one stored (date, part) pair is detected too.
  Q1Spec narrow;
  narrow.dates = {spec.dates[0]};
  narrow.parts = {spec.parts[1]};
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome third,
                           manager.Execute(QueryRequest::Sql(narrow.ToSql())));
  EXPECT_TRUE(third.detected_empty);
}

TEST_F(TpcrIntegrationTest, Q2EmptyDetectionAcrossThreeRelations) {
  EmptyResultConfig config;
  config.c_cost = 0.0;
  EmptyResultManager manager(&catalog_, &stats_, config);
  QueryGenerator gen(&instance_, 78);
  Q2Spec spec = gen.GenerateQ2(2, 1, 2, /*want_empty=*/true);
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome first,
                           manager.Execute(QueryRequest::Sql(spec.ToSql())));
  EXPECT_TRUE(first.executed);
  EXPECT_TRUE(first.result_empty);
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome again,
                           manager.Execute(QueryRequest::Sql(spec.ToSql())));
  EXPECT_TRUE(again.detected_empty);
}

TEST_F(TpcrIntegrationTest, InteractiveExplorationRefinement) {
  // A user keeps *refining* a query (the paper's motivating usage): once
  // the broad probe comes back empty, every refinement is answerable from
  // the cache without execution.
  EmptyResultConfig config;
  config.c_cost = 0.0;
  EmptyResultManager manager(&catalog_, &stats_, config);

  // Find a date with orders but below-1000 partkeys absent that day.
  QueryGenerator gen(&instance_, 79);
  Q1Spec seed = gen.GenerateQ1(1, 1, /*want_empty=*/true);
  std::string d = DateToString(seed.dates[0]);
  std::string p = std::to_string(seed.parts[0]);

  std::string broad =
      "select * from orders o, lineitem l where o.orderkey = l.orderkey "
      "and o.orderdate = DATE '" + d + "' and l.partkey = " + p;
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome probe,
                           manager.Execute(QueryRequest::Sql(broad)));
  ASSERT_TRUE(probe.result_empty);

  // Refinements: extra predicates, projections, ordering.
  for (const std::string& refinement : {
           broad + " and l.quantity > 10",
           broad + " and o.totalprice < 100.0",
           "select o.orderkey from orders o, lineitem l "
           "where o.orderkey = l.orderkey and o.orderdate = DATE '" + d +
               "' and l.partkey = " + p + " order by o.orderkey",
       }) {
    ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome outcome,
                             manager.Execute(QueryRequest::Sql(refinement)));
    EXPECT_TRUE(outcome.detected_empty) << refinement;
    EXPECT_FALSE(outcome.executed);
  }
}

TEST_F(TpcrIntegrationTest, BatchUpdateOpensNewEpoch) {
  EmptyResultConfig config;
  config.c_cost = 0.0;
  EmptyResultManager manager(&catalog_, &stats_, config);
  QueryGenerator gen(&instance_, 80);
  Q1Spec spec = gen.GenerateQ1(1, 1, /*want_empty=*/true);
  ERQ_ASSERT_OK(manager.Execute(QueryRequest::Sql(spec.ToSql())).status());
  ASSERT_GT(manager.detector().cache().size(), 0u);

  // Batch-load one lineitem that matches the stored empty combination.
  int64_t orderkey = -1;
  for (size_t i = 0; i < instance_.orders->num_rows(); ++i) {
    if (instance_.orders->row(i)[2].AsDate() == spec.dates[0]) {
      orderkey = instance_.orders->row(i)[0].AsInt();
      break;
    }
  }
  ASSERT_GE(orderkey, 0);
  ERQ_ASSERT_OK(catalog_.AppendRows(
      "lineitem", {{Value::Int(orderkey), Value::Int(spec.parts[0]),
                    Value::Int(1), Value::Double(10.0)}}));

  // The lineitem parts were invalidated; the query now executes and finds
  // the new row.
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome after,
                           manager.Execute(QueryRequest::Sql(spec.ToSql())));
  EXPECT_TRUE(after.executed);
  EXPECT_EQ(after.result_rows, 1u);
}

TEST_F(TpcrIntegrationTest, TraceReplayAchievesPaperSavings) {
  // Replay a CRM-like trace; with perfect reuse the paper projects >= 11%
  // of executions saved (2109/18793). Detection-based reuse should avoid
  // executing the repeated empty queries.
  EmptyResultConfig config;
  config.c_cost = 0.0;
  EmptyResultManager manager(&catalog_, &stats_, config);
  TraceConfig trace_config;
  trace_config.total_queries = 400;
  trace_config.seed = 5;
  std::vector<TraceQuery> trace = GenerateCrmTrace(instance_, trace_config);
  TraceStats tstats = ComputeTraceStats(trace);

  for (const TraceQuery& q : trace) {
    ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome outcome,
                             manager.Execute(QueryRequest::Sql(q.sql)));
    EXPECT_EQ(outcome.result_empty, q.expect_empty) << q.sql;
  }
  const ManagerStats& mstats = manager.stats_snapshot();
  EXPECT_EQ(mstats.queries, trace.size());
  // Every repeated empty query must be detected (identical SQL => same
  // atomic parts => covered).
  EXPECT_GE(mstats.detected_empty, tstats.repeated_empty);
  double saved = static_cast<double>(mstats.detected_empty) /
                 static_cast<double>(mstats.queries);
  EXPECT_GE(saved, 0.10) << "paper's >=11% reuse projection (2109/18793)";
}

TEST_F(TpcrIntegrationTest, CostGateSeparatesCheapAndExpensiveQueries) {
  EmptyResultConfig config;
  // Choose a threshold between a single-row index lookup and a join.
  config.c_cost = 500.0;
  EmptyResultManager manager(&catalog_, &stats_, config);
  ERQ_ASSERT_OK_AND_ASSIGN(
      QueryOutcome cheap,
      manager.Execute(
          QueryRequest::Sql("select * from customer where custkey = 3")));
  EXPECT_FALSE(cheap.high_cost) << "point lookup should be low-cost, got "
                                << cheap.estimated_cost;
  ERQ_ASSERT_OK_AND_ASSIGN(
      QueryOutcome expensive,
      manager.Execute(QueryRequest::Sql(
          "select * from orders o, lineitem l "
          "where o.orderkey = l.orderkey")));
  EXPECT_TRUE(expensive.high_cost);
}

TEST_F(TpcrIntegrationTest, AggregateUnionExceptEndToEnd) {
  EmptyResultConfig config;
  config.c_cost = 0.0;
  EmptyResultManager manager(&catalog_, &stats_, config);
  QueryGenerator gen(&instance_, 81);
  Q1Spec spec = gen.GenerateQ1(1, 1, /*want_empty=*/true);
  std::string d = DateToString(spec.dates[0]);
  std::string p = std::to_string(spec.parts[0]);
  std::string core =
      "from orders o, lineitem l where o.orderkey = l.orderkey "
      "and o.orderdate = DATE '" + d + "' and l.partkey = " + p;
  ERQ_ASSERT_OK(
      manager.Execute(QueryRequest::Sql("select * " + core)).status());

  // Scalar aggregate never detected empty — must execute and return a row.
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome agg,
                           manager.Execute(
                               QueryRequest::Sql("select count(*) " + core)));
  EXPECT_TRUE(agg.executed);
  EXPECT_EQ(agg.result_rows, 1u);
  EXPECT_EQ(agg.result.rows[0][0].AsInt(), 0);

  // UNION with a second empty branch: detected once both are known empty.
  ERQ_ASSERT_OK(
      manager.Execute(QueryRequest::Sql(
          "select * from customer where custkey = -5")).status());
  ERQ_ASSERT_OK_AND_ASSIGN(
      QueryOutcome setop,
      manager.Execute(QueryRequest::Sql(
          "select o.orderkey " + core +
          " union select custkey from customer where custkey = -5")));
  EXPECT_TRUE(setop.detected_empty);

  // EXCEPT with empty left branch: detected.
  ERQ_ASSERT_OK_AND_ASSIGN(
      QueryOutcome except,
      manager.Execute(QueryRequest::Sql(
          "select o.orderkey " + core +
          " except select custkey from customer")));
  EXPECT_TRUE(except.detected_empty);
}

}  // namespace
}  // namespace erq
