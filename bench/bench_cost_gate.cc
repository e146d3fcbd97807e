// C_cost gate ablation (§2.2): the paper gates the check behind an
// empirically chosen cost threshold. Replays a mixed stream of cheap point
// lookups (never empty, never worth checking) and expensive empty join
// probes (highly repetitive) under different fixed thresholds plus the
// AdaptiveCostGate, reporting total time spent and the check overhead
// wasted on queries that were never going to benefit.

#include <random>

#include "bench_common.h"

using namespace erq;
using namespace erq::bench;

namespace {

struct Outcome {
  double total_seconds = 0;
  double wasted_check_seconds = 0;  // checks on executed non-empty queries
  uint64_t detected = 0;
  double threshold_at_end = 0;
};

Outcome RunStream(double c_cost, bool auto_tune, uint64_t seed) {
  Environment env = Environment::Build(1.0, 29, 600);
  EmptyResultConfig config;
  config.c_cost = c_cost;
  config.auto_tune_c_cost = auto_tune;
  EmptyResultManager manager(env.catalog.get(), env.stats.get(), config);
  QueryGenerator gen(&env.instance, seed);

  // 30 hot empty join templates.
  std::vector<std::string> empty_sql;
  for (int i = 0; i < 30; ++i) {
    empty_sql.push_back(gen.GenerateQ1(2, 1, /*want_empty=*/true).ToSql());
  }

  std::mt19937_64 rng(seed);
  Outcome out;
  for (int step = 0; step < 1500; ++step) {
    std::string sql;
    if (rng() % 100 < 70) {
      // Cheap, never-empty point lookup (the common OLTP-ish traffic the
      // gate exists to protect).
      sql = "select * from customer where custkey = " +
            std::to_string(rng() % 600);
    } else {
      sql = empty_sql[rng() % empty_sql.size()];
    }
    auto outcome = manager.Execute(QueryRequest::Sql(sql));
    if (!outcome.ok()) std::abort();
    out.total_seconds += outcome->timings.check_seconds + outcome->timings.execute_seconds +
                         outcome->timings.record_seconds;
    if (outcome->executed && !outcome->result_empty) {
      out.wasted_check_seconds += outcome->timings.check_seconds;
    }
    if (outcome->detected_empty) ++out.detected;
  }
  out.threshold_at_end = manager.EffectiveCostThreshold();
  return out;
}

}  // namespace

int main() {
  PrintHeader("C_cost gate — fixed thresholds vs adaptive tuning",
              "70% cheap never-empty point lookups + 30% hot empty joins; "
              "1500 queries");

  std::printf("%-22s %12s %12s %12s %14s\n", "gate", "total(ms)",
              "wasted(ms)", "detected", "threshold@end");
  struct Config {
    const char* name;
    double c_cost;
    bool auto_tune;
  };
  for (const Config& c : {Config{"C_cost = 0 (check all)", 0.0, false},
                          Config{"C_cost = 100", 100.0, false},
                          Config{"C_cost = 1e6 (never)", 1e6, false},
                          Config{"adaptive (auto-tuned)", 0.0, true}}) {
    Outcome out = RunStream(c.c_cost, c.auto_tune, 77);
    std::printf("%-22s %12.1f %12.2f %12llu %14.1f\n", c.name,
                out.total_seconds * 1e3, out.wasted_check_seconds * 1e3,
                static_cast<unsigned long long>(out.detected),
                out.threshold_at_end);
  }
  std::printf(
      "\nexpected: 'check all' wastes check time on every cheap lookup; "
      "'never' forfeits all detection savings; a good fixed threshold and "
      "the adaptive gate keep detection while shedding the wasted "
      "checks.\n");
  return 0;
}
