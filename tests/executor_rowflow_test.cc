// Row flow through the executor: per-operator output cardinalities
// (actual_rows) pinned on fixed plans for every operator kind, the
// partitioned scan's per-partition observations, the reuse splice, the
// harvest buffer under and over its row cap, and an allocation guard
// showing a selective Filter over a table scan builds rows only for the
// rows it keeps (DESIGN.md "Row flow").

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "core/query_api.h"
#include "exec/executor.h"
#include "exec/partition_pruner.h"
#include "gtest/gtest.h"
#include "test_util.h"

// A test-local counting allocator. Sanitizer runtimes install their own
// operator new, so the guard is compiled out (and its test skipped) there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ERQ_ROWFLOW_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define ERQ_ROWFLOW_COUNT_ALLOCS 0
#endif
#endif
#ifndef ERQ_ROWFLOW_COUNT_ALLOCS
#define ERQ_ROWFLOW_COUNT_ALLOCS 1
#endif

#if ERQ_ROWFLOW_COUNT_ALLOCS
// The replacement pairs malloc with free; GCC cannot see that through the
// inlined operators and would warn at every delete site.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<size_t> g_allocs{0};
}  // namespace

void* operator new(size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
#endif

namespace erq {
namespace {

using erq::testing::FixtureDb;

/// Renders a plan as Kind=actual_rows(children...), preorder.
std::string Actuals(const PhysicalOperator& op) {
  std::string out = PhysOpKindToString(op.kind);
  out += "=" + std::to_string(op.actual_rows);
  if (!op.children.empty()) {
    out += "(";
    for (size_t i = 0; i < op.children.size(); ++i) {
      if (i > 0) out += ",";
      out += Actuals(*op.children[i]);
    }
    out += ")";
  }
  return out;
}

void CollectKinds(const PhysicalOperator& op, std::set<PhysOpKind>* kinds) {
  kinds->insert(op.kind);
  for (const PhysOpPtr& child : op.children) CollectKinds(*child, kinds);
}

/// Every row rendered in order, one per line.
std::string Render(const std::vector<Row>& rows) {
  std::string out;
  for (const Row& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += "|";
      out += row[i].ToString();
    }
    out += "\n";
  }
  return out;
}

const PhysicalOperator* FindKind(const PhysicalOperator& op, PhysOpKind kind) {
  if (op.kind == kind) return &op;
  for (const PhysOpPtr& child : op.children) {
    if (const PhysicalOperator* found = FindKind(*child, kind)) return found;
  }
  return nullptr;
}

struct PlanCase {
  const char* sql;
  const char* actuals;  // golden Actuals() after one run
  size_t rows;          // golden result cardinality
  bool merge_join = false;
  bool nested_loops = false;
};

// Golden per-operator cardinalities. Together the plans contain every
// operator kind except kCachedResultScan, which only a reuse splice
// produces (ReuseSpliceCountsCachedRows below).
const PlanCase kPlanCases[] = {
    {"select * from A", "Project=10(TableScan=10)", 10},
    {"select a from A where a < 13", "Project=3(Filter=3(TableScan=10))", 3},
    {"select a + 1, b from A where a = 10",
     "Project=1(Filter=1(TableScan=10))", 1},
    {"select * from A, B where A.c = B.d",
     "Project=10(HashJoin=10(TableScan=5,TableScan=10))", 10},
    {"select * from A, B where A.c = B.d",
     "Project=10(MergeJoin=10(TableScan=5,TableScan=10))", 10,
     /*merge_join=*/true},
    {"select * from A, B where A.c = B.d",
     "Project=10(NestedLoopsJoin=10(TableScan=5,TableScan=10))", 10, false,
     /*nested_loops=*/true},
    {"select * from B x, B y where x.d < y.d",
     "Project=10(NestedLoopsJoin=10(TableScan=5,TableScan=5))", 10},
    {"select * from A, B, C where A.c = B.d and B.d = C.f",
     "Project=6(HashJoin=6(TableScan=10,HashJoin=3(TableScan=3,TableScan=5)))",
     6},
    {"select a from A where c in (select f from C)",
     "Project=6(SemiJoin=6(TableScan=10,Project=3(TableScan=3)))", 6},
    {"select * from B left outer join C on B.d = C.f",
     "Project=5(LeftOuterJoin=5(TableScan=5,TableScan=3))", 5},
    {"select a from A order by a desc", "Sort=10(Project=10(TableScan=10))",
     10},
    {"select distinct c from A", "Distinct=5(Project=10(TableScan=10))", 5},
    {"select c, count(*), sum(a) from A where a > 11 group by c order by c",
     "Sort=5(Aggregate=5(Filter=8(TableScan=10)))", 5},
    {"select count(*), sum(a) from A where a > 99",
     "Aggregate=1(Filter=0(TableScan=10))", 1},
    {"select c from A union select d from B",
     "Union=5(Project=10(TableScan=10),Project=5(TableScan=5))", 5},
    {"select c from A union all select d from B",
     "Union=15(Project=10(TableScan=10),Project=5(TableScan=5))", 15},
    {"select d from B except select f from C",
     "Except=2(Project=5(TableScan=5),Project=3(TableScan=3))", 2},
    {"select c from A except all select d from B",
     "Except=5(Project=10(TableScan=10),Project=5(TableScan=5))", 5},
};

TEST(ExecutorRowFlowTest, EveryOperatorKindCountsItsOutput) {
  FixtureDb db;
  std::set<PhysOpKind> kinds;
  for (const PlanCase& c : kPlanCases) {
    SCOPED_TRACE(c.sql);
    OptimizerOptions options;
    options.prefer_merge_join = c.merge_join;
    options.enable_hash_join = !c.nested_loops;
    ERQ_ASSERT_OK_AND_ASSIGN(PhysOpPtr plan, db.Prepare(c.sql, options));
    ERQ_ASSERT_OK_AND_ASSIGN(ExecutionResult r, Executor::Run(plan));
    EXPECT_EQ(r.rows.size(), c.rows);
    EXPECT_EQ(Actuals(*plan), c.actuals);
    EXPECT_EQ(plan->actual_rows, static_cast<int64_t>(r.rows.size()));
    // Re-running the same plan resets and recounts: same numbers.
    ERQ_ASSERT_OK_AND_ASSIGN(ExecutionResult again, Executor::Run(plan));
    EXPECT_EQ(Render(again.rows), Render(r.rows));
    EXPECT_EQ(Actuals(*plan), c.actuals);
    CollectKinds(*plan, &kinds);
  }
  ASSERT_TRUE(db.catalog().CreateIndex("A", "a").ok());
  ERQ_ASSERT_OK_AND_ASSIGN(
      PhysOpPtr indexed,
      db.Prepare("select * from A where a between 12 and 16 and b <> 140"));
  ERQ_ASSERT_OK_AND_ASSIGN(ExecutionResult r, Executor::Run(indexed));
  EXPECT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(Actuals(*indexed), "Project=4(Filter=4(IndexScan=5))");
  CollectKinds(*indexed, &kinds);

  for (PhysOpKind kind :
       {PhysOpKind::kTableScan, PhysOpKind::kIndexScan, PhysOpKind::kFilter,
        PhysOpKind::kProject, PhysOpKind::kNestedLoopsJoin,
        PhysOpKind::kHashJoin, PhysOpKind::kMergeJoin, PhysOpKind::kSemiJoin,
        PhysOpKind::kLeftOuterJoin, PhysOpKind::kSort, PhysOpKind::kDistinct,
        PhysOpKind::kAggregate, PhysOpKind::kUnion, PhysOpKind::kExcept}) {
    EXPECT_EQ(kinds.count(kind), 1u)
        << "no plan covers " << PhysOpKindToString(kind);
  }
}

TEST(ExecutorRowFlowTest, ResultsAreOwnedByTheCaller) {
  // Rows handed out of Run must not alias table storage or operator
  // state: mutating the result leaves the table, and a rerun, unchanged.
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(PhysOpPtr plan,
                           db.Prepare("select * from A where a >= 18"));
  ERQ_ASSERT_OK_AND_ASSIGN(ExecutionResult first, Executor::Run(plan));
  const std::string expected = Render(first.rows);
  for (Row& row : first.rows) row[0] = Value::Int(-1);
  ERQ_ASSERT_OK_AND_ASSIGN(ExecutionResult second, Executor::Run(plan));
  EXPECT_EQ(Render(second.rows), expected);
  EXPECT_EQ(expected, "18|180|3\n19|190|4\n");
}

// items(id, price): 100 rows range-partitioned on id into four 25-row
// partitions; price = id % 25 * 10.
class PartitionedScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto table = catalog_.CreateTable(
        "items",
        Schema({{"id", DataType::kInt64}, {"price", DataType::kInt64}}));
    ASSERT_TRUE(table.ok());
    for (int64_t id = 0; id < 100; ++id) {
      (*table)->AppendUnchecked({Value::Int(id), Value::Int(id % 25 * 10)});
    }
    PartitionScheme scheme;
    scheme.kind = PartitionScheme::Kind::kRange;
    scheme.key_column = "id";
    scheme.range_bounds = {Value::Int(25), Value::Int(50), Value::Int(75)};
    ERQ_ASSERT_OK(catalog_.SetPartitioning("items", std::move(scheme)));
    ERQ_ASSERT_OK(stats_.AnalyzeAll(catalog_));
  }

  StatusOr<PhysOpPtr> Prepare(const std::string& sql) {
    ERQ_ASSIGN_OR_RETURN(std::unique_ptr<Statement> stmt, Parser::Parse(sql));
    Planner planner(&catalog_);
    ERQ_ASSIGN_OR_RETURN(PlannedQuery planned, planner.PlanStatement(*stmt));
    Optimizer optimizer(&catalog_, &stats_);
    return optimizer.Optimize(planned.root);
  }

  Catalog catalog_;
  StatsCatalog stats_;
};

TEST_F(PartitionedScanTest, PrunedScanCountsRowsAndMatchesPerPartition) {
  ERQ_ASSERT_OK_AND_ASSIGN(
      PhysOpPtr plan,
      Prepare("select id from items where id < 30 and price >= 200"));
  PartitionPruner pruner;
  ExecOptions options;
  options.pruner = &pruner;
  ERQ_ASSERT_OK_AND_ASSIGN(ExecutionResult r, Executor::Run(plan, options));
  EXPECT_EQ(Render(r.rows), "20\n21\n22\n23\n24\n");
  EXPECT_EQ(Actuals(*plan), "Project=5(Filter=5(TableScan=50))");

  const PhysicalOperator* scan = FindKind(*plan, PhysOpKind::kTableScan);
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->partitions_scanned, 2);
  EXPECT_EQ(scan->partitions_pruned, 2);
  ASSERT_EQ(scan->partition_stats.size(), 2u);
  EXPECT_EQ(scan->partition_stats[0].partition, 0u);
  EXPECT_EQ(scan->partition_stats[0].rows, 25u);
  EXPECT_EQ(scan->partition_stats[0].matches, 5u);
  EXPECT_EQ(scan->partition_stats[1].partition, 1u);
  EXPECT_EQ(scan->partition_stats[1].rows, 25u);
  EXPECT_EQ(scan->partition_stats[1].matches, 0u);

  // Without a pruner the same plan scans every row, and returns the same.
  ERQ_ASSERT_OK_AND_ASSIGN(ExecutionResult full, Executor::Run(plan));
  EXPECT_EQ(Render(full.rows), Render(r.rows));
  EXPECT_EQ(Actuals(*plan), "Project=5(Filter=5(TableScan=100))");
}

TEST_F(PartitionedScanTest, FilterReusesTheProbeOnlyWhenItIsThePredicate) {
  // Every conjunct classifies: the scan's probe is the Filter's predicate
  // node itself, evaluated once per row for both.
  ERQ_ASSERT_OK_AND_ASSIGN(
      PhysOpPtr same,
      Prepare("select id from items where id < 30 and price >= 200"));
  const PhysicalOperator* filter = FindKind(*same, PhysOpKind::kFilter);
  const PhysicalOperator* scan = FindKind(*same, PhysOpKind::kTableScan);
  ASSERT_NE(filter, nullptr);
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->partition_probe, filter->predicate);

  // An unclassifiable conjunct stays out of the probe, which is then
  // weaker than the predicate: the Filter evaluates its own, and matches
  // count the probe alone (ids 25..29 match in partition 1 although the
  // Filter drops 25 and 26).
  ERQ_ASSERT_OK_AND_ASSIGN(
      PhysOpPtr weaker,
      Prepare("select id from items where id < 30 and price * 2 >= id"));
  filter = FindKind(*weaker, PhysOpKind::kFilter);
  scan = FindKind(*weaker, PhysOpKind::kTableScan);
  ASSERT_NE(filter, nullptr);
  ASSERT_NE(scan, nullptr);
  ASSERT_NE(scan->partition_probe, nullptr);
  EXPECT_NE(scan->partition_probe, filter->predicate);
  PartitionPruner pruner;
  ExecOptions options;
  options.pruner = &pruner;
  ERQ_ASSERT_OK_AND_ASSIGN(ExecutionResult r, Executor::Run(weaker, options));
  EXPECT_EQ(r.rows.size(), 28u);
  EXPECT_EQ(Actuals(*weaker), "Project=28(Filter=28(TableScan=50))");
  ASSERT_EQ(scan->partition_stats.size(), 2u);
  EXPECT_EQ(scan->partition_stats[0].matches, 25u);
  EXPECT_EQ(scan->partition_stats[1].matches, 5u);
}

TEST(ExecutorRowFlowTest, ReuseSpliceCountsCachedRows) {
  FixtureDb db;
  EmptyResultConfig config;
  config.reuse.enabled = true;
  EmptyResultManager manager(&db.catalog(), &db.stats(), config);
  ERQ_ASSERT_OK(manager.init_status());
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome wide,
                           manager.Execute(QueryRequest::Sql(
                               "select * from A where a >= 14")));
  EXPECT_GE(wide.intermediates_harvested, 1u);
  ERQ_ASSERT_OK_AND_ASSIGN(
      QueryOutcome narrow,
      manager.Execute(
          QueryRequest::Sql("select * from A where a >= 14 and b < 170")));
  ASSERT_EQ(narrow.reused_subtrees, 1u);
  EXPECT_EQ(Render(narrow.result.rows), "14|140|4\n15|150|0\n16|160|1\n");
  EXPECT_EQ(Actuals(*narrow.plan), "Project=3(Filter=3(CachedResultScan=6))");
  const PhysicalOperator* cached =
      FindKind(*narrow.plan, PhysOpKind::kCachedResultScan);
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(cached->actual_rows, 6);
}

class HarvestTest : public ::testing::TestWithParam<size_t> {};

TEST_P(HarvestTest, DeliversTheFilterOutputOnlyUnderTheRowCap) {
  const size_t cap = GetParam();
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(PhysOpPtr plan,
                           db.Prepare("select * from A where c < 2"));
  std::vector<HarvestedIntermediate> harvested;
  ExecOptions options;
  options.harvest = &harvested;
  options.harvest_max_rows = cap;
  ERQ_ASSERT_OK_AND_ASSIGN(ExecutionResult r, Executor::Run(plan, options));
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(Actuals(*plan), "Project=4(Filter=4(TableScan=10))");
  if (cap < r.rows.size()) {
    EXPECT_TRUE(harvested.empty()) << "over the cap: buffer abandoned";
    return;
  }
  ASSERT_EQ(harvested.size(), 1u);
  EXPECT_EQ(harvested[0].node->kind, PhysOpKind::kFilter);
  ASSERT_NE(harvested[0].rows, nullptr);
  EXPECT_EQ(Render(*harvested[0].rows), Render(r.rows));
}

INSTANTIATE_TEST_SUITE_P(RowCaps, HarvestTest,
                         ::testing::Values(size_t{0}, size_t{3}, size_t{4},
                                           size_t{1024}));

TEST(ExecutorRowFlowTest, SelectiveFilterAllocatesPerKeptRowNotPerScannedRow) {
#if !ERQ_ROWFLOW_COUNT_ALLOCS
  GTEST_SKIP() << "allocation counting is off under sanitizers";
#else
  constexpr int64_t kRows = 10000;
  Catalog catalog;
  auto table = catalog.CreateTable(
      "T", Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}}));
  ASSERT_TRUE(table.ok());
  for (int64_t k = 0; k < kRows; ++k) {
    (*table)->AppendUnchecked({Value::Int(k), Value::Int(k * 7)});
  }
  StatsCatalog stats;
  ERQ_ASSERT_OK(stats.AnalyzeAll(catalog));
  for (int64_t kept : {10, 100}) {
    SCOPED_TRACE(kept);
    auto stmt = Parser::Parse("select * from T where k < " +
                              std::to_string(kept));
    ASSERT_TRUE(stmt.ok());
    Planner planner(&catalog);
    auto planned = planner.PlanStatement(**stmt);
    ASSERT_TRUE(planned.ok());
    Optimizer optimizer(&catalog, &stats);
    auto plan = optimizer.Optimize(planned->root);
    ASSERT_TRUE(plan.ok());
    ASSERT_NE(FindKind(**plan, PhysOpKind::kTableScan), nullptr);

    g_allocs.store(0);
    g_count_allocs.store(true);
    auto result = Executor::Run(*plan);
    g_count_allocs.store(false);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->rows.size(), static_cast<size_t>(kept));
    const size_t allocs = g_allocs.load();
    // One owned row per kept row, plus the result vector's growth and the
    // iterator tree: O(kept), far below one allocation per scanned row.
    EXPECT_LE(allocs, static_cast<size_t>(2 * kept + 40)) << allocs;
  }
#endif
}

}  // namespace
}  // namespace erq
