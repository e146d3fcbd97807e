// Interactive exploration over a TPC-R-style warehouse — the scenario the
// paper's introduction motivates: a user keeps refining precise queries,
// frequently hitting empty results. The manager shortens every repeat and
// refinement of an already-observed empty probe to a sub-millisecond
// in-memory check.
//
//   $ ./example_interactive_exploration

#include <cstdio>

#include "core/manager.h"
#include "core/query_api.h"
#include "types/date.h"
#include "workload/query_gen.h"

using namespace erq;

namespace {

void Show(const char* step, const QueryOutcome& outcome) {
  std::printf("  [%s] %s  (cost=%.0f, check=%.1fus, exec=%.1fms)\n", step,
              outcome.detected_empty
                  ? "EMPTY — answered from C_aqp, execution skipped"
                  : (outcome.result_empty
                         ? "EMPTY — discovered by executing"
                         : "rows returned"),
              outcome.estimated_cost, outcome.timings.check_seconds * 1e6,
              outcome.timings.execute_seconds * 1e3);
}

}  // namespace

int main() {
  Catalog catalog;
  TpcrConfig config;
  config.customers_per_unit = 1000;
  config.seed = 2026;
  auto instance = BuildTpcr(&catalog, config);
  if (!instance.ok()) {
    std::fprintf(stderr, "%s\n", instance.status().ToString().c_str());
    return 1;
  }
  if (auto s = BuildTpcrIndexes(&catalog); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  StatsCatalog stats;
  if (auto s = stats.AnalyzeAll(catalog); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  EmptyResultConfig erc;
  erc.c_cost = 100.0;
  EmptyResultManager manager(&catalog, &stats, erc);

  // Pick a (date, part) combination that exists in neither direction so
  // the session below is guaranteed to probe an empty region.
  QueryGenerator gen(&*instance, 99);
  Q1Spec seed = gen.GenerateQ1(1, 1, /*want_empty=*/true);
  std::string date = DateToString(seed.dates[0]);
  std::string part = std::to_string(seed.parts[0]);

  std::printf("analyst session: what was part %s doing on %s?\n\n",
              part.c_str(), date.c_str());

  auto query = [&](const char* step, const std::string& sql) {
    auto outcome = manager.Execute(QueryRequest::Sql(sql));
    if (!outcome.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   outcome.status().ToString().c_str());
      std::exit(1);
    }
    Show(step, *outcome);
  };

  // Step 1: the broad probe executes and comes back empty; its atomic
  // query parts are remembered.
  query("probe",
        "select * from orders o, lineitem l "
        "where o.orderkey = l.orderkey and o.orderdate = DATE '" + date +
            "' and l.partkey = " + part);

  // Steps 2-5: typical refinements an analyst tries next. None executes:
  // each decomposes into atomic parts covered by the stored ones.
  query("refine: large quantities only",
        "select * from orders o, lineitem l "
        "where o.orderkey = l.orderkey and o.orderdate = DATE '" + date +
            "' and l.partkey = " + part + " and l.quantity > 10");
  query("refine: cheap orders only",
        "select * from orders o, lineitem l "
        "where o.orderkey = l.orderkey and o.orderdate = DATE '" + date +
            "' and l.partkey = " + part + " and o.totalprice < 500.0");
  query("refine: project + sort",
        "select o.orderkey from orders o, lineitem l "
        "where o.orderkey = l.orderkey and o.orderdate = DATE '" + date +
            "' and l.partkey = " + part + " order by o.orderkey");
  query("refine: add customer dimension",
        "select * from orders o, lineitem l, customer c "
        "where o.orderkey = l.orderkey and o.custkey = c.custkey "
        "and o.orderdate = DATE '" + date + "' and l.partkey = " + part);

  // Step 6: the user loosens the probe — a genuinely different region, so
  // the engine executes again.
  query("loosen: any part that day",
        "select count(*) from orders o, lineitem l "
        "where o.orderkey = l.orderkey and o.orderdate = DATE '" + date + "'");

  const ManagerStats& ms = manager.stats_snapshot();
  std::printf(
      "\nsession summary: %llu queries, %llu executed, %llu answered from "
      "C_aqp (%zu stored parts)\n",
      static_cast<unsigned long long>(ms.queries),
      static_cast<unsigned long long>(ms.executed),
      static_cast<unsigned long long>(ms.detected_empty),
      manager.detector().cache().size());
  return 0;
}
