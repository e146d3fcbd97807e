// Replays a synthetic CRM-like query trace with the published statistics
// of the paper's motivating IBM trace (18,793 queries, 18.07% empty, 1,287
// distinct empties) and reports how many executions empty-result caching
// avoids — the introduction projects >= 11% (2,109 / 18,793) from perfect
// reuse of repeated empty queries.
//
//   $ ./example_crm_trace_replay [total_queries]

#include <cstdio>
#include <cstdlib>

#include "core/manager.h"
#include "core/query_api.h"
#include "workload/trace.h"

using namespace erq;

int main(int argc, char** argv) {
  size_t total = argc > 1 ? static_cast<size_t>(std::atol(argv[1])) : 1879;

  Catalog catalog;
  TpcrConfig tpcr;
  tpcr.customers_per_unit = 500;
  tpcr.seed = 11;
  auto instance = BuildTpcr(&catalog, tpcr);
  if (!instance.ok()) {
    std::fprintf(stderr, "%s\n", instance.status().ToString().c_str());
    return 1;
  }
  if (!BuildTpcrIndexes(&catalog).ok()) return 1;
  StatsCatalog stats;
  if (!stats.AnalyzeAll(catalog).ok()) return 1;

  TraceConfig trace_config;
  trace_config.total_queries = total;
  std::vector<TraceQuery> trace = GenerateCrmTrace(*instance, trace_config);
  TraceStats tstats = ComputeTraceStats(trace);
  std::printf("trace: %zu queries, %zu empty (%.2f%%), %zu distinct empty, "
              "%zu repeated empty\n\n",
              tstats.total, tstats.empty,
              100.0 * tstats.empty / tstats.total, tstats.distinct_empty,
              tstats.repeated_empty);

  EmptyResultConfig config;
  config.c_cost = 0.0;
  EmptyResultManager manager(&catalog, &stats, config);

  double check_seconds = 0, exec_seconds = 0, record_seconds = 0;
  for (const TraceQuery& q : trace) {
    auto outcome = manager.Execute(QueryRequest::Sql(q.sql));
    if (!outcome.ok()) {
      std::fprintf(stderr, "query failed: %s\n%s\n",
                   outcome.status().ToString().c_str(), q.sql.c_str());
      return 1;
    }
    if (outcome->result_empty != q.expect_empty) {
      std::fprintf(stderr, "emptiness mismatch on: %s\n", q.sql.c_str());
      return 1;
    }
    check_seconds += outcome->timings.check_seconds;
    exec_seconds += outcome->timings.execute_seconds;
    record_seconds += outcome->timings.record_seconds;
  }

  const ManagerStats& ms = manager.stats_snapshot();
  std::printf("replay results\n");
  std::printf("  executed              : %llu\n",
              static_cast<unsigned long long>(ms.executed));
  std::printf("  detected empty        : %llu (%.2f%% of all queries)\n",
              static_cast<unsigned long long>(ms.detected_empty),
              100.0 * static_cast<double>(ms.detected_empty) /
                  static_cast<double>(ms.queries));
  std::printf("  paper projection      : >= %.2f%% (repeated empties)\n",
              100.0 * static_cast<double>(tstats.repeated_empty) /
                  static_cast<double>(tstats.total));
  std::printf("  stored atomic parts   : %zu\n",
              manager.detector().cache().size());
  std::printf("  total check overhead  : %.2f ms\n", check_seconds * 1e3);
  std::printf("  total record overhead : %.2f ms\n", record_seconds * 1e3);
  std::printf("  total execution time  : %.2f ms\n", exec_seconds * 1e3);
  std::printf("  overhead / execution  : %.4f%%\n",
              100.0 * (check_seconds + record_seconds) /
                  (exec_seconds > 0 ? exec_seconds : 1.0));
  return 0;
}
