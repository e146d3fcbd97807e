#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>

#include "alloc_hook.h"

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  const size_t index = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

void ReportFailure(const std::string& operation, const std::string& why) {
  static std::atomic<int> reported{0};
  if (reported.fetch_add(1) < 5) {
    std::fprintf(stderr, "perfbench: failed: %s: %s\n", operation.c_str(),
                 why.c_str());
  }
}

Zipf::Zipf(size_t n, double s) {
  cdf_.reserve(n);
  double sum = 0.0;
  for (size_t k = 1; k <= n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k), s);
    cdf_.push_back(sum);
  }
  for (double& c : cdf_) c /= sum;
}

size_t Zipf::operator()(std::mt19937_64& rng) const {
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  const size_t k = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(k, cdf_.size() - 1);
}

void PassLog::BeginWindow() {
  if (count_allocs) {
    const alloc::Counts now = alloc::Read();
    alloc_calls -= now.calls;
    alloc_bytes -= now.bytes;
    alloc::SetCounting(true);
  }
  window_start_ns_ = NowNs();
}

void PassLog::EndWindow() {
  timed_s += static_cast<double>(NowNs() - window_start_ns_) * 1e-9;
  if (count_allocs) {
    alloc::SetCounting(false);
    const alloc::Counts now = alloc::Read();
    alloc_calls += now.calls;
    alloc_bytes += now.bytes;
  }
}

namespace {

template <typename T>
void Append(std::vector<T>* to, const std::vector<T>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

}  // namespace

void PassLog::Merge(const PassLog& o) {
  Append(&read_us, o.read_us);
  Append(&write_us, o.write_us);
  Append(&window_us, o.window_us);
  Append(&read_empty, o.read_empty);
  timed_ops += o.timed_ops;
  timed_s += o.timed_s;
  attempted += o.attempted;
  failed += o.failed;
  Append(&parse_us, o.parse_us);
  Append(&plan_us, o.plan_us);
  Append(&optimize_us, o.optimize_us);
  Append(&gate_us, o.gate_us);
  Append(&check_us, o.check_us);
  Append(&execute_us, o.execute_us);
  Append(&record_us, o.record_us);
  Append(&roundtrip_us, o.roundtrip_us);
  Append(&overhead_us, o.overhead_us);
  Append(&append_us, o.append_us);
  Append(&delete_us, o.delete_us);
  truth_empty += o.truth_empty;
  detected_truth_empty += o.detected_truth_empty;
  executed_reads += o.executed_reads;
  reads += o.reads;
  writes += o.writes;
  partitions_scanned += o.partitions_scanned;
  partitions_pruned += o.partitions_pruned;
  operator_rows += o.operator_rows;
  executed_result_rows += o.executed_result_rows;
  reuse_rows_served += o.reuse_rows_served;
  stage_sum_violations += o.stage_sum_violations;
  LayerCounts& c = counts;
  const LayerCounts& d = o.counts;
  c.queries += d.queries;
  c.checks += d.checks;
  c.executed += d.executed;
  c.caqp_lookups += d.caqp_lookups;
  c.caqp_hits += d.caqp_hits;
  c.caqp_conditions += d.caqp_conditions;
  c.caqp_postings += d.caqp_postings;
  c.caqp_entries_live += d.caqp_entries_live;
  c.reuse_lookups += d.reuse_lookups;
  c.reuse_hits += d.reuse_hits;
  c.reuse_evictions += d.reuse_evictions;
  c.reuse_bytes += d.reuse_bytes;
  c.reuse_invalidated += d.reuse_invalidated;
  Append(&spans, o.spans);
  alloc_calls += o.alloc_calls;
  alloc_bytes += o.alloc_bytes;
}

int32_t Recorder::AddSpan(uint64_t request, int32_t parent, const char* name,
                          int64_t start_ns, int64_t dur_ns) {
  const int32_t id = next_span_++;
  log_->spans.push_back(Span{request, id, parent, name, start_ns, dur_ns});
  return id;
}

void Recorder::Read(Transport transport, int64_t start_ns, int64_t end_ns,
                    bool truth_empty, bool ok, const QueryReport& r) {
  PassLog& log = *log_;
  ++log.attempted;
  if (!ok) {
    ++log.failed;
    return;
  }
  ++log.timed_ops;
  const double us = static_cast<double>(end_ns - start_ns) * 1e-3;
  log.read_us.push_back(us);
  log.read_empty.push_back(truth_empty ? 1 : 0);
  log.window_us.push_back(us);
  if (!log.traced) return;

  ++log.reads;
  if (truth_empty) {
    ++log.truth_empty;
    if (r.detected_empty) ++log.detected_truth_empty;
  }
  if (r.executed) {
    ++log.executed_reads;
    if (r.operator_rows >= 0) {
      log.operator_rows += static_cast<uint64_t>(r.operator_rows);
      log.executed_result_rows += r.result_rows;
    }
  }
  log.partitions_scanned += r.partitions_scanned;
  log.partitions_pruned += r.partitions_pruned;
  log.reuse_rows_served += r.reuse_rows_served;

  log.parse_us.push_back(r.parse_s * 1e6);
  log.plan_us.push_back(r.plan_s * 1e6);
  log.optimize_us.push_back(r.optimize_s * 1e6);
  log.gate_us.push_back(r.gate_s * 1e6);
  if (r.check_s > 0) log.check_us.push_back(r.check_s * 1e6);
  if (r.executed) log.execute_us.push_back(r.execute_s * 1e6);
  if (r.record_s > 0) log.record_us.push_back(r.record_s * 1e6);
  log.roundtrip_us.push_back(us);
  log.overhead_us.push_back(us - r.total_s * 1e6);

  // The stages are disjoint pieces of the engine's total, which is itself
  // inside the call the benchmark timed.
  const double span_s = static_cast<double>(end_ns - start_ns) * 1e-9;
  if (r.StageSum() > r.total_s + 1e-9 || r.total_s > span_s + 1e-9) {
    ++log.stage_sum_violations;
  }

  if (!log.keep_spans) return;
  const uint64_t request = next_request_++;
  next_span_ = 0;
  const bool http = transport == Transport::kHttp;
  const int32_t root_id = AddSpan(request, -1,
                                  http ? "http.roundtrip" : "Execute",
                                  start_ns, end_ns - start_ns);
  int64_t at = start_ns;
  int32_t parent = root_id;
  if (http) {
    // The engine's total sits somewhere inside the round trip; centre it,
    // since the response does not say where.
    const int64_t total_ns = static_cast<int64_t>(r.total_s * 1e9);
    at += (end_ns - start_ns - total_ns) / 2;
    parent = AddSpan(request, root_id, "engine.total", at, total_ns);
  }
  const std::pair<const char*, double> stages[] = {
      {"sql.parse", r.parse_s},        {"plan.plan", r.plan_s},
      {"plan.optimize", r.optimize_s}, {"core.gate", r.gate_s},
      {"core.check", r.check_s},       {"exec.execute", r.execute_s},
      {"core.record", r.record_s},
  };
  for (const auto& [name, seconds] : stages) {
    if (seconds <= 0) continue;
    const int64_t dur = static_cast<int64_t>(seconds * 1e9);
    AddSpan(request, parent, name, at, dur);
    at += dur;
  }
}

void Recorder::Write(WriteKind kind, int64_t start_ns, int64_t end_ns,
                     bool ok, bool in_window) {
  PassLog& log = *log_;
  ++log.attempted;
  if (!ok) {
    ++log.failed;
    return;
  }
  const double us = static_cast<double>(end_ns - start_ns) * 1e-3;
  if (in_window) {
    ++log.timed_ops;
    log.window_us.push_back(us);
  }
  const bool append = kind == WriteKind::kAppend;
  if (append) {
    unpaired_appends_us_.push_back(us);
  } else if (!unpaired_appends_us_.empty()) {
    log.write_us.push_back(unpaired_appends_us_.front() + us);
    unpaired_appends_us_.pop_front();
  }
  if (!log.traced) return;
  ++log.writes;
  (append ? log.append_us : log.delete_us).push_back(us);
  if (!log.keep_spans) return;
  next_span_ = 0;
  AddSpan(next_request_++, -1,
          append ? "catalog.AppendRows" : "catalog.DeleteRows", start_ns,
          end_ns - start_ns);
}

}  // namespace perfbench
