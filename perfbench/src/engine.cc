#include "engine.h"

#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace {

[[noreturn]] void Die(const char* what, const erq::Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what, status.ToString().c_str());
  std::exit(2);
}

int64_t OperatorRows(const erq::PhysicalOperator& op) {
  int64_t rows = op.actual_rows > 0 ? op.actual_rows : 0;
  for (const erq::PhysOpPtr& child : op.children) rows += OperatorRows(*child);
  return rows;
}

}  // namespace

TpcrDb BuildTpcrDb(const erq::TpcrConfig& config, bool indexes) {
  TpcrDb db;
  db.catalog = std::make_unique<erq::Catalog>();
  erq::StatusOr<erq::TpcrInstance> instance =
      erq::BuildTpcr(db.catalog.get(), config);
  if (!instance.ok()) Die("BuildTpcr", instance.status());
  db.instance = *instance;
  if (indexes) {
    if (erq::Status s = erq::BuildTpcrIndexes(db.catalog.get()); !s.ok()) {
      Die("BuildTpcrIndexes", s);
    }
  }
  db.stats = std::make_unique<erq::StatsCatalog>();
  if (erq::Status s = db.stats->AnalyzeAll(*db.catalog); !s.ok()) {
    Die("AnalyzeAll", s);
  }
  return db;
}

QueryReport ReportOf(const erq::QueryOutcome& o) {
  QueryReport r;
  const erq::QueryOutcome::Timings& t = o.timings;
  r.parse_s = t.parse_seconds;
  r.plan_s = t.plan_seconds;
  r.optimize_s = t.optimize_seconds;
  r.gate_s = t.gate_seconds;
  r.check_s = t.check_seconds;
  r.execute_s = t.execute_seconds;
  r.record_s = t.record_seconds;
  r.total_s = t.total_seconds;
  r.detected_empty = o.detected_empty;
  r.executed = o.executed;
  r.result_rows = o.result_rows;
  r.partitions_scanned = o.partitions_scanned;
  r.partitions_pruned = o.partitions_pruned;
  r.reuse_rows_served = o.reuse_rows_served;
  if (o.executed && o.plan != nullptr) r.operator_rows = OperatorRows(*o.plan);
  return r;
}

void AddCounts(erq::EmptyResultManager& manager, LayerCounts* c) {
  const erq::ManagerStats m = manager.stats_snapshot();
  c->queries += m.queries;
  c->checks += m.checks;
  c->executed += m.executed;
  const erq::CaqpCache::CacheStats caqp =
      manager.detector().cache().stats_snapshot();
  c->caqp_lookups += caqp.lookups;
  c->caqp_hits += caqp.hits;
  c->caqp_conditions += caqp.conditions_scanned;
  c->caqp_postings += caqp.postings_scanned;
  c->caqp_entries_live += caqp.entries_live;
  if (const erq::ReuseStore* store = manager.reuse_store()) {
    const erq::ReuseStoreStats reuse = store->stats_snapshot();
    c->reuse_lookups += reuse.lookups;
    c->reuse_hits += reuse.hits;
    c->reuse_evictions += reuse.evictions;
    c->reuse_bytes += reuse.bytes;
    c->reuse_invalidated += reuse.invalidated;
  }
}

void WriteProbe(erq::Catalog* catalog, int64_t first_key, int32_t date,
                Recorder* recorder) {
  for (int i = 0; i < kProbePairs; ++i) {
    const int64_t lo = first_key + int64_t{i} * kProbeRows;
    const int64_t hi = lo + kProbeRows;
    std::vector<erq::Row> rows;
    for (int64_t key = lo; key < hi; ++key) {
      rows.push_back(erq::Row{erq::Value::Int(key), erq::Value::Int(0),
                              erq::Value::Date(date), erq::Value::Double(1.0)});
    }
    int64_t start = NowNs();
    const bool appended = catalog->AppendRows("orders", std::move(rows)).ok();
    int64_t end = NowNs();
    recorder->Write(WriteKind::kAppend, start, end, appended, false);

    start = NowNs();
    erq::StatusOr<size_t> removed =
        catalog->DeleteRows("orders", [lo, hi](const erq::Row& row) {
          const int64_t key = row[0].AsInt();
          return key >= lo && key < hi;
        });
    end = NowNs();
    const size_t expected = appended ? kProbeRows : 0;
    recorder->Write(WriteKind::kDelete, start, end,
                    removed.ok() && *removed == expected, false);
  }
}

}  // namespace perfbench
