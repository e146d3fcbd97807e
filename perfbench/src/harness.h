#pragma once

// Shared machinery of the perfbench binary: the per-operation record every
// workload fills, the span tracer, the pass log the metrics are computed
// from, and the workload interface main.cc drives.

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample; 0 when
/// the sample is empty.
double Percentile(std::vector<double> values, double p);

/// Prints the first few failed operations of the process to stderr.
void ReportFailure(const std::string& operation, const std::string& why);

/// Inverse-CDF Zipf(s) sampler over [0, n).
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t operator()(std::mt19937_64& rng) const;

 private:
  std::vector<double> cdf_;
};

/// The engine's per-query report, as the benchmark sees it: from a
/// QueryOutcome in process, or from the response JSON over HTTP. Stage
/// fields are seconds.
struct QueryReport {
  double parse_s = 0, plan_s = 0, optimize_s = 0, gate_s = 0, check_s = 0,
         execute_s = 0, record_s = 0, total_s = 0;
  bool detected_empty = false;
  bool executed = false;
  size_t result_rows = 0;
  size_t partitions_scanned = 0;
  size_t partitions_pruned = 0;
  size_t reuse_rows_served = 0;
  /// Sum of actual_rows over every operator of the executed plan, or -1
  /// when the plan is not available (HTTP).
  int64_t operator_rows = -1;

  double StageSum() const {
    return parse_s + plan_s + optimize_s + gate_s + check_s + execute_s +
           record_s;
  }
};

/// One span of the trace dump. Spans of one operation share `request`;
/// `id` numbers the spans within it (the root is 0) and `parent` is the
/// id of the enclosing span, or -1 for the root.
/// Stage spans carry exact durations but, since the engine reports only
/// durations, their starts are laid out back to back inside the parent.
struct Span {
  uint64_t request = 0;
  int32_t id = 0;
  int32_t parent = -1;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
};

/// Counter snapshots a workload adds up over its traced passes, read
/// from ManagerStats, CaqpCache::CacheStats and ReuseStoreStats.
struct LayerCounts {
  uint64_t queries = 0, checks = 0, executed = 0;
  uint64_t caqp_lookups = 0, caqp_hits = 0, caqp_conditions = 0,
           caqp_postings = 0, caqp_entries_live = 0;
  uint64_t reuse_lookups = 0, reuse_hits = 0, reuse_evictions = 0,
           reuse_bytes = 0, reuse_invalidated = 0;
};

/// Everything one pass (or several, merged) observed.
struct PassLog {
  // End-to-end samples, microseconds, in the order the operations were
  // issued (client by client), so that sample i of one pass and sample i
  // of another are the same operation. A write_us sample is one append
  // plus the delete that removes its rows; window_us holds every
  // successful operation inside the throughput window, reads and writes.
  std::vector<double> read_us, write_us, window_us;
  std::vector<char> read_empty;  ///< generator ground truth of each read
  uint64_t timed_ops = 0;  ///< successful operations inside the window
  double timed_s = 0;      ///< length of the throughput window
  uint64_t attempted = 0;  ///< every operation issued, probes included
  uint64_t failed = 0;     ///< errors, wrong results, malformed responses

  // Per-layer samples (traced passes only), microseconds.
  bool traced = false;
  bool keep_spans = false;  ///< record spans for the trace dump
  std::vector<double> parse_us, plan_us, optimize_us, gate_us, check_us,
      execute_us, record_us, roundtrip_us, overhead_us, append_us, delete_us;
  uint64_t truth_empty = 0, detected_truth_empty = 0;
  uint64_t executed_reads = 0, reads = 0, writes = 0;
  uint64_t partitions_scanned = 0, partitions_pruned = 0;
  uint64_t operator_rows = 0, executed_result_rows = 0;
  uint64_t reuse_rows_served = 0;
  uint64_t stage_sum_violations = 0;
  LayerCounts counts;
  std::vector<Span> spans;

  // Heap allocations inside the throughput window (counting passes only).
  bool count_allocs = false;
  uint64_t alloc_calls = 0, alloc_bytes = 0;

  /// Opens the throughput window: starts its clock and, on a counting
  /// pass, the allocation counters. Windows of one pass add up.
  void BeginWindow();
  /// Closes the window opened by BeginWindow().
  void EndWindow();

  void Merge(const PassLog& other);

 private:
  int64_t window_start_ns_ = 0;
};

enum class Transport { kInProcess, kHttp };
enum class WriteKind { kAppend, kDelete };

/// Records one operation into a PassLog: latency samples always, and with
/// tracing on the root span, its stage children and the stage samples.
class Recorder {
 public:
  /// Request ids start at `first_request`, so recorders of concurrent
  /// clients get disjoint ranges.
  Recorder(PassLog* log, uint64_t first_request)
      : log_(log), next_request_(first_request) {}

  /// A read: one Execute call or one HTTP round trip. `ok` is false for
  /// an error, a wrong result or a malformed response.
  void Read(Transport transport, int64_t start_ns, int64_t end_ns,
            bool truth_empty, bool ok, const QueryReport& report);

  /// A write: one AppendRows or DeleteRows call. `in_window` says whether
  /// it belongs to the throughput window. Every workload deletes inserted
  /// rows in the order it inserted them, so the n-th delete pairs with the
  /// n-th append: one write_us sample is the pair's summed latency.
  void Write(WriteKind kind, int64_t start_ns, int64_t end_ns, bool ok,
             bool in_window);

 private:
  int32_t AddSpan(uint64_t request, int32_t parent, const char* name,
                  int64_t start_ns, int64_t dur_ns);

  PassLog* log_;
  uint64_t next_request_;
  int32_t next_span_ = 0;
  std::deque<double> unpaired_appends_us_;
};

/// Facts about a workload's inputs, printed with the run's metadata.
struct Facts {
  std::vector<std::pair<std::string, double>> values;
  void Add(std::string name, double value) {
    values.emplace_back(std::move(name), value);
  }
};

/// A workload: fixed inputs generated from the seed in the constructor,
/// replayed identically by every pass on freshly set-up state.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the pass's state: data, ANALYZE, manager or server.
  virtual void Setup() = 0;
  /// Replays the whole operation sequence. `log->traced` selects tracing.
  /// With `verify` the pass also runs the workload's reference checks.
  virtual void RunPass(PassLog* log, bool verify) = 0;
  /// Releases the pass's state.
  virtual void Teardown() = 0;
  /// Whether all of a pass's work runs on the calling thread, so that its
  /// allocation counts repeat exactly.
  virtual bool SingleThreaded() const = 0;
  /// Number of closed-loop clients issuing the operations at once.
  virtual size_t Clients() const = 0;
  /// Input sizes and settings worth stating next to the metrics.
  virtual Facts InputFacts() const = 0;
};

std::unique_ptr<Workload> MakeCrmReplay(uint64_t seed);
std::unique_ptr<Workload> MakeServedHot(uint64_t seed);
std::unique_ptr<Workload> MakeChurnReuse(uint64_t seed);

}  // namespace perfbench
