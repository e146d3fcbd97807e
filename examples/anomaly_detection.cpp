// Anomaly-detection monitoring — the related-work scenario (§4) where the
// empty result *is the expected answer*: operators repeatedly run probes
// that should return nothing, and only care how fast "nothing" comes back.
// Cooperative-answering systems have no role here, but empty-result
// caching does: after the first clean sweep, subsequent sweeps are
// answered without touching the data.
//
//   $ ./example_anomaly_detection

#include <chrono>
#include <cstdio>
#include <vector>

#include "core/manager.h"
#include "core/query_api.h"

using namespace erq;

int main() {
  Catalog catalog;
  auto txn = catalog.CreateTable(
      "transactions", Schema({{"id", DataType::kInt64},
                              {"account", DataType::kInt64},
                              {"amount", DataType::kDouble},
                              {"status", DataType::kString}}));
  auto audit = catalog.CreateTable(
      "audit_log", Schema({{"txn_id", DataType::kInt64},
                           {"severity", DataType::kInt64}}));
  if (!txn.ok() || !audit.ok()) return 1;

  // A healthy ledger: amounts within limits, all transactions settled,
  // and audit severities low.
  for (int64_t i = 0; i < 50000; ++i) {
    txn.value()->AppendUnchecked(
        {Value::Int(i), Value::Int(i % 997),
         Value::Double(static_cast<double>((i * 37) % 9000)),
         Value::String("settled")});
    if (i % 5 == 0) {
      audit.value()->AppendUnchecked({Value::Int(i), Value::Int(i % 3)});
    }
  }
  StatsCatalog stats;
  if (!stats.AnalyzeAll(catalog).ok()) return 1;

  EmptyResultConfig config;
  config.c_cost = 0.0;
  EmptyResultManager manager(&catalog, &stats, config);

  // The monitoring suite: each probe is expected to be empty.
  const std::vector<std::string> probes = {
      // Oversized transactions.
      "select * from transactions where amount > 10000.0",
      // Unsettled transactions.
      "select * from transactions where status = 'pending' "
      "or status = 'failed'",
      // Any high-severity audit entry attached to a large transaction.
      "select * from transactions t, audit_log a "
      "where t.id = a.txn_id and a.severity > 5 and t.amount > 5000.0",
      // Negative amounts.
      "select * from transactions where amount < 0.0",
  };

  auto sweep = [&](const char* label) {
    auto start = std::chrono::steady_clock::now();
    size_t executed = 0, detected = 0, anomalies = 0;
    for (const std::string& sql : probes) {
      auto outcome = manager.Execute(QueryRequest::Sql(sql));
      if (!outcome.ok()) {
        std::fprintf(stderr, "probe failed: %s\n",
                     outcome.status().ToString().c_str());
        std::exit(1);
      }
      if (outcome->detected_empty) {
        ++detected;
      } else {
        ++executed;
        if (!outcome->result_empty) ++anomalies;
      }
    }
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    std::printf("%-22s %zu probes: %zu executed, %zu from cache, "
                "%zu anomalies, %.2f ms total\n",
                label, probes.size(), executed, detected, anomalies, ms);
  };

  std::printf("monitoring sweeps over %zu-row ledger\n\n",
              txn.value()->num_rows());
  sweep("sweep 1 (cold)");
  sweep("sweep 2 (cached)");
  sweep("sweep 3 (cached)");

  // An anomaly lands: one oversized pending transaction. The batch update
  // invalidates the stored parts for `transactions`, so the next sweep
  // re-executes and catches it.
  std::printf("\n!! injecting an oversized pending transaction\n\n");
  auto append = catalog.AppendRows(
      "transactions", {{Value::Int(999999), Value::Int(1),
                        Value::Double(50000.0), Value::String("pending")}});
  if (!append.ok()) return 1;
  sweep("sweep 4 (dirty)");
  return 0;
}
