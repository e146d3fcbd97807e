// Partition-pruning benchmarks over the partitioned TPC-R instance:
// end-to-end EmptyResultManager::Query latency as a function of
// partition count x predicate selectivity (zone-map skipping on the
// partition key) and partition count x stored-fact hit rate (C_aqp
// (relation, partition) knowledge pruning scans the zone maps cannot
// refute). Every run reports partitions scanned/pruned per query as
// counters, so BENCH_partition.json pins the skipping behaviour — not
// just the latency — PR over PR.
//
// Data shape (see src/workload/tpcr.cc): orders holds 10 sequential
// orderkeys per customer and a totalprice drawn uniformly from
// [1, 10000]. Range-partitioning on orderkey therefore gives zone maps
// that refute orderkey ranges outside a partition's slice, while every
// partition spans essentially the full totalprice domain — so a narrow
// totalprice band is zone-map-irrefutable and can only be skipped via
// stored (orders, k) facts recorded from an earlier scan.
//
// tools/bench_json.sh runs this binary and writes the merged output to
// BENCH_partition.json (separate from BENCH_caqp.json so the C_aqp
// trajectory files stay comparable across PRs).

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "bench_common.h"

using namespace erq;
using namespace erq::bench;

namespace {

constexpr double kScale = 0.5;  // 750 customers -> 7500 orders

// TPC-R build cost is amortized across benchmark repetitions: one
// immutable environment per partition fanout, shared by every benchmark
// (all queries here are read-only). Built WITHOUT indexes: an index on
// orderkey would turn the selective queries into index scans, and
// partition pruning is a property of table scans — the thing under test.
const Environment& SharedEnv(size_t partitions) {
  static std::mutex mu;
  static std::map<size_t, std::unique_ptr<Environment>>* envs =
      new std::map<size_t, std::unique_ptr<Environment>>();
  std::lock_guard<std::mutex> lock(mu);
  auto it = envs->find(partitions);
  if (it == envs->end()) {
    auto env = std::make_unique<Environment>(
        Environment::Build(kScale, /*seed=*/42, /*customers_per_unit=*/1500,
                           partitions, /*build_indexes=*/false));
    it = envs->emplace(partitions, std::move(env)).first;
  }
  return *it->second;
}

std::string OrderkeyRange(int64_t lo, int64_t hi) {
  return "select orderkey, totalprice from orders where orderkey >= " +
         std::to_string(lo) + " and orderkey < " + std::to_string(hi);
}

std::string PriceBand(double lo, double hi) {
  return "select orderkey from orders where totalprice >= " +
         std::to_string(lo) + " and totalprice < " + std::to_string(hi);
}

void ReportPartitionCounters(benchmark::State& state, size_t scanned,
                             size_t pruned, size_t rows) {
  state.counters["partitions_scanned"] =
      benchmark::Counter(static_cast<double>(scanned),
                         benchmark::Counter::kAvgIterations);
  state.counters["partitions_pruned"] = benchmark::Counter(
      static_cast<double>(pruned), benchmark::Counter::kAvgIterations);
  state.counters["rows"] = benchmark::Counter(
      static_cast<double>(rows), benchmark::Counter::kAvgIterations);
}

// Zone-map skipping on the partition key: a selective orderkey range
// covering sel% of the key domain, rotated across iterations so every
// query is distinct. Stored-fact recording is disabled, so all pruning
// comes from the zone maps; partitions=1 is the no-pruning ablation
// baseline.
void BM_ZoneMapSkipping(benchmark::State& state) {
  const size_t partitions = static_cast<size_t>(state.range(0));
  const int64_t sel_pct = state.range(1);
  const Environment& env = SharedEnv(partitions);
  const int64_t domain =
      static_cast<int64_t>(env.instance.orders->num_rows());
  const int64_t width = std::max<int64_t>(1, domain * sel_pct / 100);

  EmptyResultConfig config;
  config.record_partition_empties = false;
  EmptyResultManager manager(env.catalog.get(), env.stats.get(), config);
  if (!manager.init_status().ok()) std::abort();

  size_t scanned = 0, pruned = 0, rows = 0;
  int64_t lo = 0;
  for (auto _ : state) {
    auto outcome = manager.Execute(
        QueryRequest::Sql(OrderkeyRange(lo, lo + width)));
    if (!outcome.ok()) std::abort();
    scanned += outcome->partitions_scanned;
    pruned += outcome->partitions_pruned;
    rows += outcome->result_rows;
    lo = (lo + width + 37) % std::max<int64_t>(1, domain - width);
  }
  ReportPartitionCounters(state, scanned, pruned, rows);
}
BENCHMARK(BM_ZoneMapSkipping)
    ->ArgNames({"partitions", "sel_pct"})
    ->ArgsProduct({{1, 4, 16, 64}, {1, 10, 50}})
    ->Unit(benchmark::kMicrosecond);

// Stored-fact pruning hit rate: a pool of narrow totalprice bands that
// zone maps cannot refute (every partition spans the price domain).
// hit_pct% of the pool is pre-executed through a separate *recording*
// manager, and the (orders, k) parts it stored are copied into the
// timed manager's cache. The timed manager itself records nothing —
// otherwise its first pass through the pool would store facts for
// every band and all hit_pct levels would converge to the same steady
// state. The timed loop cycles the whole pool, so exactly the warmed
// fraction of queries prunes via C_aqp coverage while the rest pay the
// full scan.
void BM_StoredFactHitRate(benchmark::State& state) {
  const size_t partitions = static_cast<size_t>(state.range(0));
  const int64_t hit_pct = state.range(1);
  const Environment& env = SharedEnv(partitions);

  EmptyResultConfig config;
  config.record_partition_empties = false;
  EmptyResultManager manager(env.catalog.get(), env.stats.get(), config);
  if (!manager.init_status().ok()) std::abort();

  // 16 disjoint width-10 bands in [2000, 4000): ~0.1% selectivity each,
  // so with many partitions most partitions hold no matching row and a
  // recording pass stores facts for nearly all of them.
  constexpr size_t kPool = 16;
  std::vector<std::string> queries;
  for (size_t i = 0; i < kPool; ++i) {
    double lo = 2000.0 + 125.0 * static_cast<double>(i);
    queries.push_back(PriceBand(lo, lo + 10.0));
  }
  const size_t warm = kPool * static_cast<size_t>(hit_pct) / 100;
  size_t recorded = 0;
  {
    EmptyResultConfig warm_config;  // recording on (the default)
    EmptyResultManager warmer(env.catalog.get(), env.stats.get(),
                              warm_config);
    if (!warmer.init_status().ok()) std::abort();
    for (size_t i = 0; i < warm; ++i) {
      auto outcome = warmer.Execute(QueryRequest::Sql(queries[i]));
      if (!outcome.ok()) std::abort();
      recorded += outcome->partition_aqps_recorded;
    }
    for (const AtomicQueryPart& part : warmer.detector().cache().Snapshot()) {
      manager.detector().cache().Insert(part);
    }
  }

  size_t scanned = 0, pruned = 0, rows = 0, i = 0;
  for (auto _ : state) {
    auto outcome = manager.Execute(QueryRequest::Sql(queries[i]));
    if (!outcome.ok()) std::abort();
    scanned += outcome->partitions_scanned;
    pruned += outcome->partitions_pruned;
    rows += outcome->result_rows;
    i = (i + 1) % kPool;
  }
  ReportPartitionCounters(state, scanned, pruned, rows);
  state.counters["warm_facts"] = benchmark::Counter(
      static_cast<double>(recorded), benchmark::Counter::kDefaults);
}
BENCHMARK(BM_StoredFactHitRate)
    ->ArgNames({"partitions", "hit_pct"})
    ->ArgsProduct({{4, 16, 64}, {0, 50, 100}})
    ->Unit(benchmark::kMicrosecond);

// The pruning ablation pinned by tests/partition_pruning_test.cc, as a
// latency pair: the same selective orderkey query with pruning on vs.
// off over the same 16-way partitioned instance.
void BM_PruningAblation(benchmark::State& state) {
  const bool pruning = state.range(0) != 0;
  const Environment& env = SharedEnv(16);
  const int64_t domain =
      static_cast<int64_t>(env.instance.orders->num_rows());

  EmptyResultConfig config;
  config.partition_pruning = pruning;
  config.record_partition_empties = false;
  EmptyResultManager manager(env.catalog.get(), env.stats.get(), config);
  if (!manager.init_status().ok()) std::abort();

  const std::string sql = OrderkeyRange(domain / 3, domain / 3 + domain / 50);
  size_t scanned = 0, pruned = 0, rows = 0;
  for (auto _ : state) {
    auto outcome = manager.Execute(QueryRequest::Sql(sql));
    if (!outcome.ok()) std::abort();
    scanned += outcome->partitions_scanned;
    pruned += outcome->partitions_pruned;
    rows += outcome->result_rows;
  }
  ReportPartitionCounters(state, scanned, pruned, rows);
}
BENCHMARK(BM_PruningAblation)
    ->ArgNames({"pruning"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
