// Intro claim (§1): in the IBM CRM trace, 2,109 of 18,793 query executions
// (>= 11%) are repeats of earlier empty-result queries and avoidable by
// perfect reuse. Replays a synthetic trace with the published statistics
// through the full manager and reports executions saved, wall-clock saved,
// and the detection hit rate among repeated empties (should be 100%:
// identical SQL decomposes to identical atomic parts).

#include "bench_common.h"
#include "workload/trace.h"

using namespace erq;
using namespace erq::bench;

int main() {
  PrintHeader("Trace replay — intro's >= 11% reuse projection",
              "synthetic CRM trace: 18.07% empty, 37.9% of empties "
              "distinct, Zipf-repeated hot spots");

  std::printf("%8s %10s %10s %10s %12s %12s %12s\n", "queries", "empty",
              "detected", "saved%", "check(ms)", "record(ms)", "exec(ms)");
  for (size_t total : {500, 1000, 2000}) {
    Environment env = Environment::Build(1.0, 11, 500);
    TraceConfig config;
    config.total_queries = total;
    config.seed = total;
    std::vector<TraceQuery> trace = GenerateCrmTrace(env.instance, config);

    EmptyResultConfig erc;
    erc.c_cost = 0.0;
    EmptyResultManager manager(env.catalog.get(), env.stats.get(), erc);
    double check = 0, record = 0, exec = 0;
    for (const TraceQuery& q : trace) {
      auto outcome = manager.Execute(QueryRequest::Sql(q.sql));
      if (!outcome.ok() || outcome->result_empty != q.expect_empty) {
        std::fprintf(stderr, "replay failure on: %s\n", q.sql.c_str());
        return 1;
      }
      check += outcome->timings.check_seconds;
      record += outcome->timings.record_seconds;
      exec += outcome->timings.execute_seconds;
    }
    const ManagerStats& ms = manager.stats_snapshot();
    std::printf("%8zu %10llu %10llu %9.2f%% %12.2f %12.2f %12.2f\n", total,
                static_cast<unsigned long long>(ms.empty_results +
                                                ms.detected_empty),
                static_cast<unsigned long long>(ms.detected_empty),
                100.0 * static_cast<double>(ms.detected_empty) /
                    static_cast<double>(ms.queries),
                check * 1e3, record * 1e3, exec * 1e3);
  }
  std::printf("\npaper projection: >= 11%% of executions saved; the replay "
              "should land at (empty%% - distinct-empty%%) ~ 11.2%%.\n");
  return 0;
}
