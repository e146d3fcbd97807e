#pragma once

// Glue between the benchmark and the engine's public API: building the
// TPC-R data set, turning a QueryOutcome into a QueryReport, reading the
// stats snapshots, and the catalog write probe.

#include <memory>

#include "core/manager.h"
#include "harness.h"
#include "workload/tpcr.h"

namespace perfbench {

/// One freshly built TPC-R database with its statistics.
struct TpcrDb {
  std::unique_ptr<erq::Catalog> catalog;
  std::unique_ptr<erq::StatsCatalog> stats;
  erq::TpcrInstance instance;
};

/// Builds data (and indexes when asked) and runs ANALYZE. Exits the
/// process on failure: no later step could run without it.
TpcrDb BuildTpcrDb(const erq::TpcrConfig& config, bool indexes);

/// The engine's report of one in-process Execute call.
QueryReport ReportOf(const erq::QueryOutcome& outcome);

/// Adds the manager's ManagerStats, CacheStats and ReuseStoreStats to
/// `counts`.
void AddCounts(erq::EmptyResultManager& manager, LayerCounts* counts);

/// The write probe: kProbePairs times, one AppendRows call adding
/// kProbeRows orders rows with fresh keys, then one DeleteRows call that
/// scans orders and removes them.
constexpr int kProbePairs = 16;
constexpr int kProbeRows = 64;

/// Runs the write probe against whatever detection state the attached
/// managers hold. Outside the throughput window; leaves the data as it
/// found it.
void WriteProbe(erq::Catalog* catalog, int64_t first_key, int32_t date,
                Recorder* recorder);

}  // namespace perfbench
