// perfbench: the end-to-end benchmark binary. perfbench/run.py builds and
// calls it; see perfbench/README.md for the workloads and metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// A run is: one verification pass, two allocation-counting passes, then
// timed passes until S seconds of operations have been measured. Every
// pass sets up fresh state (data, ANALYZE, manager or server) and replays
// the same seeded operation sequence, so passes are interchangeable.
// The last stdout line is the result object; the line before it holds
// the run's own facts (sample counts, input sizes, allocation self-check).

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "alloc_hook.h"
#include "harness.h"

namespace perfbench {
namespace {

constexpr int kMinTimedPasses = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      args->workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args->seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return Ratio(sum, static_cast<double>(v.size()));
}

/// Each operation's fastest replay over the run's untraced timed passes.
/// Passes replay identical operations in the same order, so sample i of
/// every pass is one operation. The host's speed swings by up to 2x, in
/// spells of seconds to minutes, and a slow spell stretches every sample
/// taken in it; an operation's fastest replay is the time the program
/// needed for it when the host let it run, and moves far less with the
/// host.
/// Percentiles and means are then taken over the operations.
struct BestReplay {
  std::vector<double> read_us, write_us, window_us;
  std::vector<char> read_empty;
  size_t passes = 0;
  /// Passes whose operation sequence did not line up with the first one.
  size_t misaligned = 0;

  void Add(const PassLog& pass) {
    if (passes++ == 0) {
      read_us = pass.read_us;
      write_us = pass.write_us;
      window_us = pass.window_us;
      read_empty = pass.read_empty;
      return;
    }
    if (pass.read_us.size() != read_us.size() ||
        pass.write_us.size() != write_us.size() ||
        pass.window_us.size() != window_us.size() ||
        pass.read_empty != read_empty) {
      ++misaligned;
      return;
    }
    KeepMin(&read_us, pass.read_us);
    KeepMin(&write_us, pass.write_us);
    KeepMin(&window_us, pass.window_us);
  }

  /// The best read times of the reads whose ground truth is `empty`.
  std::vector<double> Reads(bool empty) const {
    std::vector<double> out;
    for (size_t i = 0; i < read_us.size(); ++i) {
      if ((read_empty[i] != 0) == empty) out.push_back(read_us[i]);
    }
    return out;
  }

 private:
  static void KeepMin(std::vector<double>* best,
                      const std::vector<double>& pass) {
    for (size_t i = 0; i < best->size(); ++i) {
      (*best)[i] = std::min((*best)[i], pass[i]);
    }
  }
};

/// name -> (value, unit), in print order.
using Metrics =
    std::vector<std::pair<std::string, std::pair<double, const char*>>>;

Metrics EndToEnd(const BestReplay& best, size_t clients,
                 const PassLog& counted, const std::vector<double>& setup_s,
                 double peak_rss_mb) {
  // Closed-loop clients each run their share of the operations back to
  // back, so the rate at best-replay speed is clients x ops / summed time.
  double best_window_s = 0;
  for (double us : best.window_us) best_window_s += us * 1e-6;
  return {
      {"throughput_qps",
       {Ratio(static_cast<double>(clients * best.window_us.size()),
              best_window_s),
        "1/s"}},
      {"query_p50_us", {Percentile(best.read_us, 0.50), "us"}},
      {"query_p99_us", {Percentile(best.read_us, 0.99), "us"}},
      {"empty_mean_us", {Mean(best.Reads(true)), "us"}},
      {"nonempty_p50_us", {Percentile(best.Reads(false), 0.50), "us"}},
      {"write_p50_us", {Percentile(best.write_us, 0.50), "us"}},
      {"allocs_per_query",
       {Ratio(counted.alloc_calls, counted.timed_ops), "count"}},
      {"alloc_bytes_per_query",
       {Ratio(counted.alloc_bytes, counted.timed_ops), "B"}},
      {"peak_rss_mb", {peak_rss_mb, "MB"}},
      // The fastest set-up of the run, for the same reason.
      {"setup_s", {*std::min_element(setup_s.begin(), setup_s.end()), "s"}},
  };
}

Metrics PerLayer(const PassLog& t, double untraced_qps, double hook_ns,
                 size_t traced_passes) {
  const LayerCounts& c = t.counts;
  const double passes = static_cast<double>(traced_passes);
  return {
      {"exec.execute_p50_us", {Percentile(t.execute_us, 0.5), "us"}},
      {"exec.rows_per_result_row",
       {Ratio(t.operator_rows, t.executed_result_rows), "ratio"}},
      {"exec.executed_ratio", {Ratio(t.executed_reads, t.reads), "ratio"}},
      {"exec.partitions_pruned_ratio",
       {Ratio(t.partitions_pruned, t.partitions_scanned + t.partitions_pruned),
        "ratio"}},
      {"core.check_p50_us", {Percentile(t.check_us, 0.5), "us"}},
      {"core.caqp.conditions_scanned_per_lookup",
       {Ratio(c.caqp_conditions, c.caqp_lookups), "count"}},
      {"core.caqp.postings_scanned_per_lookup",
       {Ratio(c.caqp_postings, c.caqp_lookups), "count"}},
      {"core.caqp.hit_ratio", {Ratio(c.caqp_hits, c.caqp_lookups), "ratio"}},
      {"core.caqp.entries_live", {Ratio(c.caqp_entries_live, passes), "count"}},
      {"core.detect_recall",
       {Ratio(t.detected_truth_empty, t.truth_empty), "ratio"}},
      {"core.checks_per_query", {Ratio(c.checks, c.queries), "ratio"}},
      {"core.record_p50_us", {Percentile(t.record_us, 0.5), "us"}},
      {"core.gate_p50_us", {Percentile(t.gate_us, 0.5), "us"}},
      {"sql.parse_p50_us", {Percentile(t.parse_us, 0.5), "us"}},
      {"plan.plan_p50_us", {Percentile(t.plan_us, 0.5), "us"}},
      {"plan.optimize_p50_us", {Percentile(t.optimize_us, 0.5), "us"}},
      {"server.roundtrip_p50_us", {Percentile(t.roundtrip_us, 0.5), "us"}},
      {"server.overhead_p50_us", {Percentile(t.overhead_us, 0.5), "us"}},
      {"reuse.hit_ratio", {Ratio(c.reuse_hits, c.reuse_lookups), "ratio"}},
      {"reuse.rows_served_per_query",
       {Ratio(t.reuse_rows_served, t.reads), "count"}},
      {"reuse.evictions", {Ratio(c.reuse_evictions, passes), "count"}},
      {"reuse.bytes", {Ratio(c.reuse_bytes, passes), "B"}},
      {"reuse.invalidated_per_write",
       {Ratio(c.reuse_invalidated, t.writes), "count"}},
      {"catalog.append_p50_us", {Percentile(t.append_us, 0.5), "us"}},
      {"catalog.delete_p50_us", {Percentile(t.delete_us, 0.5), "us"}},
      {"trace.overhead_ratio",
       {Ratio(Ratio(t.timed_ops, t.timed_s), untraced_qps), "ratio"}},
      {"alloc.hook_ns", {hook_ns, "ns"}},
  };
}

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  for (const auto& [name, value] : metrics) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + Num(value.first) +
           ", \"unit\": \"" + value.second + "\"}";
  }
  return out + "}";
}

std::string FactsJson(const Facts& facts) {
  std::string out = "{";
  for (const auto& [name, value] : facts.values) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": " + Num(value);
  }
  return out + "}";
}

bool WriteTrace(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"request\": %llu, \"span\": %d, \"parent\": %d, "
                 "\"name\": \"%s\", \"start_us\": %.3f, \"dur_us\": %.3f}\n",
                 static_cast<unsigned long long>(s.request), s.id, s.parent,
                 s.name, static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.dur_ns) * 1e-3);
  }
  return std::fclose(f) == 0;
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload;
  if (args.workload == "crm_replay") {
    workload = MakeCrmReplay(args.seed);
  } else if (args.workload == "served_hot") {
    workload = MakeServedHot(args.seed);
  } else if (args.workload == "churn_reuse") {
    workload = MakeChurnReuse(args.seed);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  uint64_t attempted = 0, failed = 0;
  // Runs one pass on fresh state; returns its set-up time in seconds.
  auto run_pass = [&](PassLog* log, bool verify) {
    const int64_t start = NowNs();
    workload->Setup();
    const double setup_s = static_cast<double>(NowNs() - start) * 1e-9;
    workload->RunPass(log, verify);
    workload->Teardown();
    attempted += log->attempted;
    failed += log->failed;
    return setup_s;
  };

  // Verification pass: the workload's reference checks, untimed.
  PassLog verified;
  run_pass(&verified, /*verify=*/true);

  // Two counting passes over identical fresh state. After the first
  // (verification) pass every lazily created process-wide object exists,
  // so in-process workloads must count exactly the same.
  PassLog counted[2];
  for (PassLog& log : counted) {
    log.count_allocs = true;
    run_pass(&log, /*verify=*/false);
  }
  // Peak RSS is read here, once every kind of pass has run and before the
  // timed passes' latency samples, which grow with the host's speed, pile up.
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  const bool allocs_repeat = counted[0].alloc_calls == counted[1].alloc_calls &&
                             counted[0].alloc_bytes == counted[1].alloc_bytes;
  const bool allocs_ok = allocs_repeat || !workload->SingleThreaded();

  // Timed passes. A traced run alternates traced and untraced passes, so
  // the tracing overhead is measured under the same host conditions.
  PassLog untraced, traced;
  BestReplay best;
  std::vector<double> setup_s;
  int passes = 0;
  const int min_passes = args.trace ? 2 * kMinTimedPasses : kMinTimedPasses;
  while (true) {
    const double timed_s = untraced.timed_s + traced.timed_s;
    if (passes >= min_passes && timed_s >= args.seconds) break;
    PassLog log;
    log.traced = args.trace && passes % 2 == 1;
    // The dump keeps the first traced pass only, so its size stays bounded.
    log.keep_spans = log.traced && traced.timed_ops == 0;
    setup_s.push_back(run_pass(&log, /*verify=*/false));
    std::fprintf(stderr, "perfbench: pass %d%s: %llu ops in %.3f s, %.1f/s\n",
                 passes, log.traced ? " (traced)" : "",
                 static_cast<unsigned long long>(log.timed_ops), log.timed_s,
                 Ratio(log.timed_ops, log.timed_s));
    if (!log.traced) best.Add(log);
    (log.traced ? traced : untraced).Merge(log);
    ++passes;
  }

  const bool stages_ok = traced.stage_sum_violations == 0;
  const bool aligned = best.misaligned == 0;
  const bool correct = failed == 0 && allocs_ok && stages_ok && aligned;
  if (!aligned) {
    std::fprintf(stderr,
                 "perfbench: %zu passes issued other operations than the "
                 "first\n",
                 best.misaligned);
  }
  if (!allocs_ok) {
    std::fprintf(stderr,
                 "perfbench: allocation counts differ between identical "
                 "passes: %llu/%llu calls, %llu/%llu bytes\n",
                 static_cast<unsigned long long>(counted[0].alloc_calls),
                 static_cast<unsigned long long>(counted[1].alloc_calls),
                 static_cast<unsigned long long>(counted[0].alloc_bytes),
                 static_cast<unsigned long long>(counted[1].alloc_bytes));
  }
  if (!stages_ok) {
    std::fprintf(stderr,
                 "perfbench: %llu reads whose stage times exceed their span\n",
                 static_cast<unsigned long long>(traced.stage_sum_violations));
  }
  if (failed > 0) {
    std::fprintf(stderr, "perfbench: %llu of %llu operations failed\n",
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted));
  }

  Metrics metrics;
  if (args.trace) {
    const double hook_ns = alloc::HookCostNs();
    metrics = PerLayer(traced, Ratio(untraced.timed_ops, untraced.timed_s),
                       hook_ns, static_cast<size_t>(passes / 2));
    if (!args.trace_out.empty() && !WriteTrace(args.trace_out, traced.spans)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
    }
  } else {
    metrics = EndToEnd(best, workload->Clients(), counted[0], setup_s,
                       peak_rss_mb);
  }

  // The run's own facts: not metrics, never used to normalise one.
  Facts samples;
  samples.Add("read", static_cast<double>(best.read_us.size()));
  samples.Add("empty", static_cast<double>(best.Reads(true).size()));
  samples.Add("nonempty", static_cast<double>(best.Reads(false).size()));
  samples.Add("write", static_cast<double>(best.write_us.size()));
  samples.Add("replays", static_cast<double>(best.passes));
  // The wall-clock rate of the untraced passes, host swings included.
  samples.Add("measured_qps", Ratio(untraced.timed_ops, untraced.timed_s));
  Facts selfcheck;
  selfcheck.Add("calls_first", static_cast<double>(counted[0].alloc_calls));
  selfcheck.Add("calls_second", static_cast<double>(counted[1].alloc_calls));
  selfcheck.Add("bytes_first", static_cast<double>(counted[0].alloc_bytes));
  selfcheck.Add("bytes_second", static_cast<double>(counted[1].alloc_bytes));
  selfcheck.Add("repeat", allocs_repeat ? 1 : 0);
  std::printf("{\"perfbench\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"timed_passes\": %d, \"samples\": %s, "
              "\"alloc_selfcheck\": %s, \"inputs\": %s}}\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              passes, FactsJson(samples).c_str(), FactsJson(selfcheck).c_str(),
              FactsJson(workload->InputFacts()).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
