// Ablation of invalidation strategy under a mixed query/update stream —
// the §5 future-work extension. Three modes:
//   drop-all           : the paper's strategy (any update flushes C_aqp);
//   drop-touched       : drop parts mentioning the updated relation;
//   filter-irrelevant  : drop only parts the inserted rows could satisfy;
//                        deletions drop nothing.
// Workload: a Zipf-repetitive stream of empty Q1 probes interleaved with
// batch inserts of lineitems for existing (but different) parts, plus
// occasional deletions. Detection hit rate and executions saved per mode.

#include <random>

#include "bench_common.h"
#include "workload/trace.h"

using namespace erq;
using namespace erq::bench;

namespace {

struct ModeResult {
  uint64_t detected = 0;
  uint64_t executed = 0;
  uint64_t invalidation_drops = 0;
};

ModeResult RunMode(InvalidationMode mode, uint64_t seed) {
  Environment env = Environment::Build(1.0, 17, 400);
  EmptyResultConfig config;
  config.c_cost = 0.0;
  config.invalidation = mode;
  EmptyResultManager manager(env.catalog.get(), env.stats.get(), config);
  QueryGenerator gen(&env.instance, seed);
  std::mt19937_64 rng(seed * 31 + 7);

  // A pool of hot empty probes, revisited Zipf-style.
  std::vector<Q1Spec> hot;
  for (int i = 0; i < 40; ++i) {
    hot.push_back(gen.GenerateQ1(2, 1, /*want_empty=*/true));
  }

  ModeResult result;
  for (int step = 0; step < 800; ++step) {
    if (step % 25 == 24) {
      // Batch update: insert lineitems for random *existing* orders and
      // parts that are unlikely to hit the stored (date, part) combos.
      std::vector<Row> rows;
      for (int k = 0; k < 4; ++k) {
        std::uniform_int_distribution<size_t> o(
            0, env.instance.orders->num_rows() - 1);
        int64_t orderkey = env.instance.orders->row(o(rng))[0].AsInt();
        rows.push_back({Value::Int(orderkey),
                        Value::Int(env.instance.config.num_parts +
                                   static_cast<int64_t>(rng() % 1000)),
                        Value::Int(1), Value::Double(1.0)});
      }
      if (!env.catalog->AppendRows("lineitem", std::move(rows)).ok()) {
        std::abort();
      }
      // Refresh statistics after the batch (read-mostly workflow).
      if (!env.stats->AnalyzeTable(*env.catalog, "lineitem").ok()) {
        std::abort();
      }
      continue;
    }
    if (step % 100 == 99) {
      // Occasional deletion batch.
      int64_t cut = static_cast<int64_t>(rng() % 100);
      if (!env.catalog
               ->DeleteRows("lineitem",
                            [cut](const Row& row) {
                              return row[1].AsInt() == cut &&
                                     row[2].AsInt() == 50;
                            })
               .ok()) {
        std::abort();
      }
      continue;
    }
    // Zipf-pick a hot probe.
    size_t idx = static_cast<size_t>(
        hot.size() *
        std::pow(std::uniform_real_distribution<double>(0, 1)(rng), 2.0));
    if (idx >= hot.size()) idx = hot.size() - 1;
    auto outcome = manager.Execute(QueryRequest::Sql(hot[idx].ToSql()));
    if (!outcome.ok()) std::abort();
    if (outcome->detected_empty) {
      ++result.detected;
    } else {
      ++result.executed;
    }
  }
  result.invalidation_drops =
      manager.detector().cache().stats_snapshot().invalidation_drops;
  return result;
}

}  // namespace

int main() {
  PrintHeader("Ablation — invalidation strategy under updates (§5)",
              "Zipf-repetitive empty probes interleaved with batch inserts "
              "(irrelevant to the probes) and deletions");

  std::printf("%-18s %10s %10s %10s %14s\n", "mode", "queries", "detected",
              "executed", "parts dropped");
  for (auto [mode, name] :
       {std::pair{InvalidationMode::kDropAll, "drop-all (paper)"},
        std::pair{InvalidationMode::kDropTouched, "drop-touched"},
        std::pair{InvalidationMode::kFilterIrrelevant, "filter-irrelevant"}}) {
    ModeResult r = RunMode(mode, 3);
    std::printf("%-18s %10llu %10llu %10llu %14llu\n", name,
                static_cast<unsigned long long>(r.detected + r.executed),
                static_cast<unsigned long long>(r.detected),
                static_cast<unsigned long long>(r.executed),
                static_cast<unsigned long long>(r.invalidation_drops));
  }
  std::printf(
      "\nexpected: filter-irrelevant keeps (nearly) all stored parts "
      "across irrelevant batch updates, so it detects the most and "
      "executes the least; drop-all pays a full warm-up after every "
      "update.\n");
  return 0;
}
