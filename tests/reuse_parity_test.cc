// End-to-end correctness of intermediate-result reuse through the managed
// pipeline (DESIGN.md §13): a manager with reuse enabled must return
// byte-identical results to the reuse-off ablation — across the fixture
// tables, the partitioned items workload, and a TPC-R CRM trace — while
// actually splicing cached intermediates; and catalog mutations must
// invalidate dependent entries before the next read.

#include <cstdio>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/manager.h"
#include "core/query_api.h"
#include "gtest/gtest.h"
#include "reuse/reuse_store.h"
#include "test_util.h"
#include "workload/tpcr.h"
#include "workload/trace.h"

namespace erq {
namespace {

using ::erq::testing::FixtureDb;

EmptyResultConfig ReuseOn() {
  EmptyResultConfig config;
  config.reuse.enabled = true;
  return config;
}

void ExpectRowsEqual(const std::vector<Row>& with,
                     const std::vector<Row>& without, const std::string& sql) {
  ASSERT_EQ(with.size(), without.size()) << sql;
  for (size_t i = 0; i < with.size(); ++i) {
    const Row& a = with[i];
    const Row& b = without[i];
    ASSERT_EQ(a.size(), b.size()) << sql;
    for (size_t c = 0; c < a.size(); ++c) {
      ASSERT_EQ(a[c].Compare(b[c]), 0) << sql << " row " << i << " col " << c;
    }
  }
}

/// Single-table scans must match byte for byte, including order: the
/// spliced rows were harvested in the table scan's ascending row order.
void ExpectSameRows(const QueryOutcome& with, const QueryOutcome& without,
                    const std::string& sql) {
  ExpectRowsEqual(with.result.rows, without.result.rows, sql);
}

/// Multi-relation queries: the splice changes access-path cost estimates,
/// which can legitimately flip the greedy join order — the row *set* must
/// be identical, the emission order need not be.
void ExpectSameRowSet(const QueryOutcome& with, const QueryOutcome& without,
                      const std::string& sql) {
  ExpectRowsEqual(testing::Sorted(with.result.rows),
                  testing::Sorted(without.result.rows), sql);
}

TEST(ReuseParityTest, SecondRunSplicesWithIdenticalResults) {
  FixtureDb db;
  EmptyResultManager manager(&db.catalog(), &db.stats(), ReuseOn());
  EmptyResultManager baseline(&db.catalog(), &db.stats());
  ERQ_ASSERT_OK(manager.init_status());
  ERQ_ASSERT_OK(baseline.init_status());

  const std::string sql = "select * from A where a >= 12 and a <= 16";
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome first,
                           manager.Execute(QueryRequest::Sql(sql)));
  EXPECT_TRUE(first.executed);
  EXPECT_EQ(first.reused_subtrees, 0u) << "nothing to splice yet";
  EXPECT_GE(first.intermediates_harvested, 1u);

  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome second,
                           manager.Execute(QueryRequest::Sql(sql)));
  EXPECT_GE(second.reused_subtrees, 1u) << "second run must splice";
  EXPECT_GE(second.reuse_rows_served, second.result.rows.size());

  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome flat,
                           baseline.Execute(QueryRequest::Sql(sql)));
  EXPECT_EQ(flat.reused_subtrees, 0u);
  ExpectSameRows(second, flat, sql);

  // A strictly narrower predicate is covered by the stored condition;
  // the residual filter must still apply the full probe predicate.
  const std::string narrower = "select * from A where a >= 13 and a <= 14";
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome covered,
                           manager.Execute(QueryRequest::Sql(narrower)));
  EXPECT_GE(covered.reused_subtrees, 1u);
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome covered_flat,
                           baseline.Execute(QueryRequest::Sql(narrower)));
  ExpectSameRows(covered, covered_flat, narrower);
}

TEST(ReuseParityTest, FixtureSweepIsByteIdentical) {
  // Every query runs twice against the reuse manager (populate, then
  // splice) and once against the ablation; all three row sets must match
  // exactly, including order.
  FixtureDb db;
  EmptyResultManager with(&db.catalog(), &db.stats(), ReuseOn());
  EmptyResultManager without(&db.catalog(), &db.stats());
  ERQ_ASSERT_OK(with.init_status());
  ERQ_ASSERT_OK(without.init_status());

  std::vector<std::string> queries;
  for (int lo = 8; lo <= 20; lo += 3) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "select a, b from A where a >= %d and a < %d", lo, lo + 5);
    queries.push_back(buf);
    std::snprintf(buf, sizeof(buf), "select * from B where d = %d", lo % 6);
    queries.push_back(buf);
  }
  queries.push_back("select a from A where b > 120 and c = 3");
  queries.push_back("select * from C");

  size_t spliced = 0;
  for (const std::string& sql : queries) {
    // Populate the store.
    ERQ_ASSERT_OK(with.Execute(QueryRequest::Sql(sql)).status());
    ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome hot,
                             with.Execute(QueryRequest::Sql(sql)));
    ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome flat,
                             without.Execute(QueryRequest::Sql(sql)));
    ExpectSameRows(hot, flat, sql);
    spliced += hot.reused_subtrees;
  }
  EXPECT_GT(spliced, 0u) << "the sweep never exercised the splice path";

  // A join whose filtered input was harvested: the spliced plan may pick
  // a different join order (cost estimates change), so compare row sets.
  const std::string join = "select a, e from A, B where c = d and a < 17";
  ERQ_ASSERT_OK(with.Execute(QueryRequest::Sql(join)).status());
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome hot_join,
                           with.Execute(QueryRequest::Sql(join)));
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome flat_join,
                           without.Execute(QueryRequest::Sql(join)));
  ExpectSameRowSet(hot_join, flat_join, join);
}

TEST(ReuseParityTest, InsertInvalidatesBeforeNextRead) {
  FixtureDb db;
  EmptyResultManager manager(&db.catalog(), &db.stats(), ReuseOn());
  ERQ_ASSERT_OK(manager.init_status());

  const std::string sql = "select * from A where a >= 15 and a <= 30";
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome cold,
                           manager.Execute(QueryRequest::Sql(sql)));
  EXPECT_EQ(cold.result_rows, 5u);
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome hot,
                           manager.Execute(QueryRequest::Sql(sql)));
  ASSERT_GE(hot.reused_subtrees, 1u);

  // The new row lands inside the cached condition: serving the stale
  // intermediate would drop it. The catalog listener must evict first.
  ERQ_ASSERT_OK(db.catalog().AppendRows(
      "A", {{Value::Int(25), Value::Int(250), Value::Int(0)}}));
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome after,
                           manager.Execute(QueryRequest::Sql(sql)));
  EXPECT_EQ(after.result_rows, 6u) << "stale intermediate served after insert";
  EXPECT_EQ(after.reused_subtrees, 0u) << "dependent entry must be evicted";

  // An irrelevant insert (provably failing the stored condition) keeps
  // the refreshed entry alive: the next run may splice again.
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome rewarm,
                           manager.Execute(QueryRequest::Sql(sql)));
  ASSERT_GE(rewarm.reused_subtrees, 1u);
  ERQ_ASSERT_OK(db.catalog().AppendRows(
      "A", {{Value::Int(500), Value::Int(0), Value::Int(0)}}));
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome still_hot,
                           manager.Execute(QueryRequest::Sql(sql)));
  EXPECT_GE(still_hot.reused_subtrees, 1u)
      << "irrelevant insert must not evict (update filter)";
  EXPECT_EQ(still_hot.result_rows, 6u);
}

TEST(ReuseParityTest, PartitionedItemsParity) {
  // Reuse composed with partition pruning: identical rows with reuse on
  // and off over the partitioned items fixture (the partition test's
  // price layout, 4 range partitions on id).
  auto build = [](Catalog* catalog) {
    auto table = catalog->CreateTable(
        "items",
        Schema({{"id", DataType::kInt64}, {"price", DataType::kInt64}}));
    ASSERT_TRUE(table.ok());
    for (int64_t id = 0; id < 100; ++id) {
      int64_t p = id / 25, o = id % 25;
      int64_t price = o == 0 ? 0 : o == 1 ? 1000 : p == 0 ? 550 : 200 + o;
      (*table)->AppendUnchecked({Value::Int(id), Value::Int(price)});
    }
    PartitionScheme scheme;
    scheme.kind = PartitionScheme::Kind::kRange;
    scheme.key_column = "id";
    scheme.range_bounds = {Value::Int(25), Value::Int(50), Value::Int(75)};
    ERQ_ASSERT_OK(catalog->SetPartitioning("items", std::move(scheme)));
  };
  Catalog catalog;
  build(&catalog);
  StatsCatalog stats;
  ERQ_ASSERT_OK(stats.AnalyzeAll(catalog));

  EmptyResultManager with(&catalog, &stats, ReuseOn());
  EmptyResultManager without(&catalog, &stats);
  ERQ_ASSERT_OK(with.init_status());
  ERQ_ASSERT_OK(without.init_status());

  std::vector<std::string> queries;
  for (int lo = 0; lo <= 1000; lo += 125) {
    char buf[160];
    std::snprintf(
        buf, sizeof(buf),
        "SELECT id, price FROM items WHERE price >= %d AND price <= %d", lo,
        lo + 90);
    queries.push_back(buf);
    std::snprintf(buf, sizeof(buf),
                  "SELECT id FROM items WHERE id >= %d AND id < %d", lo / 10,
                  lo / 10 + 13);
    queries.push_back(buf);
  }
  for (const std::string& sql : queries) {
    ERQ_ASSERT_OK(with.Execute(QueryRequest::Sql(sql)).status());
    ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome hot,
                             with.Execute(QueryRequest::Sql(sql)));
    ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome flat,
                             without.Execute(QueryRequest::Sql(sql)));
    ExpectSameRows(hot, flat, sql);
  }
}

TEST(ReuseParityTest, TpcrTraceParity) {
  // The acceptance pin: a CRM-shaped trace over the TPC-R instance runs
  // through both managers; every query's rows must match byte for byte,
  // and the reuse manager must have spliced at least once.
  TpcrConfig config;
  config.scale = 0.1;
  Catalog catalog;
  ERQ_ASSERT_OK_AND_ASSIGN(TpcrInstance instance, BuildTpcr(&catalog, config));

  StatsCatalog stats;
  ERQ_ASSERT_OK(stats.AnalyzeAll(catalog));

  EmptyResultManager with(&catalog, &stats, ReuseOn());
  EmptyResultManager without(&catalog, &stats);
  ERQ_ASSERT_OK(with.init_status());
  ERQ_ASSERT_OK(without.init_status());

  TraceConfig trace_config;
  trace_config.total_queries = 120;
  std::vector<TraceQuery> trace = GenerateCrmTrace(instance, trace_config);
  ASSERT_FALSE(trace.empty());

  for (const TraceQuery& q : trace) {
    ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome hot,
                             with.Execute(QueryRequest::Sql(q.sql)));
    ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome flat,
                             without.Execute(QueryRequest::Sql(q.sql)));
    ExpectSameRowSet(hot, flat, q.sql);
    if (q.expect_empty) {
      EXPECT_TRUE(hot.result_empty) << q.sql;
      EXPECT_TRUE(flat.result_empty) << q.sql;
    }
  }
  const ManagerStats ms = with.stats_snapshot();
  EXPECT_GT(ms.intermediates_harvested, 0u);
}

}  // namespace
}  // namespace erq
