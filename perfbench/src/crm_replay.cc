// crm_replay: the synthetic CRM trace (about 18% empty, Zipf-repeated
// empties) replayed in process by one client over TPC-R, detection on and
// reuse off. Executed scans dominate, and detection avoids the repeated
// empties, so executor and allocation changes show here.

#include "engine.h"
#include "core/query_api.h"
#include "workload/trace.h"

namespace perfbench {
namespace {

constexpr size_t kCustomers = 500;  // 5,000 orders, 20,000 lineitems
constexpr size_t kQueries = 1000;   // one pass replays the whole trace

class CrmReplay : public Workload {
 public:
  explicit CrmReplay(uint64_t seed) {
    tpcr_.customers_per_unit = kCustomers;
    tpcr_.seed = seed;
    const TpcrDb db = BuildTpcrDb(tpcr_, /*indexes=*/true);
    erq::TraceConfig trace;
    trace.total_queries = kQueries;
    trace.seed = seed + 1;
    trace_ = erq::GenerateCrmTrace(db.instance, trace);
    probe_key_ = static_cast<int64_t>(db.instance.orders->num_rows()) + 1000000;
    probe_date_ = db.instance.first_date;
    config_.c_cost = 0.0;  // every query is checked against C_aqp
    config_.detection_enabled = true;
    config_.reuse.enabled = false;
  }

  void Setup() override {
    db_ = BuildTpcrDb(tpcr_, /*indexes=*/true);
    manager_ = std::make_unique<erq::EmptyResultManager>(
        db_.catalog.get(), db_.stats.get(), config_);
  }

  void RunPass(PassLog* log, bool /*verify*/) override {
    Recorder recorder(log, 0);
    log->BeginWindow();
    for (const erq::TraceQuery& q : trace_) {
      const erq::QueryRequest request = erq::QueryRequest::Sql(q.sql);
      const int64_t start = NowNs();
      erq::StatusOr<erq::QueryOutcome> outcome = manager_->Execute(request);
      const int64_t end = NowNs();
      const bool ok = outcome.ok() &&
                      outcome->result_empty == q.expect_empty &&
                      (outcome->result_rows == 0) == q.expect_empty;
      if (!ok) {
        ReportFailure(q.sql, outcome.ok() ? "wrong emptiness"
                                          : outcome.status().ToString());
      }
      recorder.Read(Transport::kInProcess, start, end, q.expect_empty, ok,
                    ok && log->traced ? ReportOf(*outcome) : QueryReport{});
    }
    log->EndWindow();
    if (log->traced) AddCounts(*manager_, &log->counts);
    WriteProbe(db_.catalog.get(), probe_key_, probe_date_, &recorder);
  }

  void Teardown() override {
    // The manager listens to the catalog, so it goes first.
    manager_.reset();
    db_ = TpcrDb{};
  }

  bool SingleThreaded() const override { return true; }
  size_t Clients() const override { return 1; }

  Facts InputFacts() const override {
    const erq::TraceStats stats = erq::ComputeTraceStats(trace_);
    Facts f;
    f.Add("customers", kCustomers);
    f.Add("queries_per_pass", static_cast<double>(stats.total));
    f.Add("empty_queries", static_cast<double>(stats.empty));
    f.Add("distinct_empty", static_cast<double>(stats.distinct_empty));
    f.Add("repeated_empty", static_cast<double>(stats.repeated_empty));
    f.Add("n_max", static_cast<double>(config_.n_max));
    f.Add("probe_writes_per_pass", 2 * kProbePairs);
    f.Add("probe_rows_per_write", kProbeRows);
    return f;
  }

 private:
  erq::TpcrConfig tpcr_;
  erq::EmptyResultConfig config_;
  std::vector<erq::TraceQuery> trace_;
  int64_t probe_key_ = 0;
  int32_t probe_date_ = 0;
  TpcrDb db_;
  std::unique_ptr<erq::EmptyResultManager> manager_;
};

}  // namespace

std::unique_ptr<Workload> MakeCrmReplay(uint64_t seed) {
  return std::make_unique<CrmReplay>(seed);
}

}  // namespace perfbench
