#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/manager.h"
#include "core/query_api.h"
#include "workload/query_gen.h"

namespace erq::bench {

/// A TPC-R environment at a given scale factor, mirroring §3.1's setup:
/// data, indexes on every selection/join attribute, and fresh statistics.
struct Environment {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<StatsCatalog> stats;
  TpcrInstance instance;

  /// `build_indexes=false` leaves the instance index-free, so selection
  /// predicates plan as table scans — the shape partition pruning
  /// applies to (bench_partition measures scan skipping, which an index
  /// scan on the same key would bypass entirely).
  static Environment Build(double scale, uint64_t seed = 42,
                           size_t customers_per_unit = 1500,
                           size_t partitions = 1, bool build_indexes = true) {
    Environment env;
    env.catalog = std::make_unique<Catalog>();
    TpcrConfig config;
    config.scale = scale;
    config.seed = seed;
    config.customers_per_unit = customers_per_unit;
    config.partitions = partitions;
    auto inst = BuildTpcr(env.catalog.get(), config);
    if (!inst.ok()) {
      std::fprintf(stderr, "BuildTpcr: %s\n", inst.status().ToString().c_str());
      std::abort();
    }
    env.instance = *inst;
    if (build_indexes) {
      if (auto s = BuildTpcrIndexes(env.catalog.get()); !s.ok()) {
        std::fprintf(stderr, "indexes: %s\n", s.ToString().c_str());
        std::abort();
      }
    }
    env.stats = std::make_unique<StatsCatalog>();
    if (auto s = env.stats->AnalyzeAll(*env.catalog); !s.ok()) {
      std::fprintf(stderr, "analyze: %s\n", s.ToString().c_str());
      std::abort();
    }
    return env;
  }

  LogicalOpPtr Plan(const std::string& sql) const {
    auto stmt = Parser::Parse(sql);
    if (!stmt.ok()) std::abort();
    Planner planner(catalog.get());
    auto planned = planner.PlanStatement(**stmt);
    if (!planned.ok()) {
      std::fprintf(stderr, "plan: %s\n%s\n",
                   planned.status().ToString().c_str(), sql.c_str());
      std::abort();
    }
    return planned->root;
  }

  PhysOpPtr Prepare(const std::string& sql) const {
    Optimizer optimizer(catalog.get(), stats.get());
    auto plan = optimizer.Optimize(Plan(sql));
    if (!plan.ok()) std::abort();
    return *plan;
  }
};

/// Pre-populates a detector's C_aqp with ~`n_parts` atomic query parts
/// harvested from generated empty Q1 (or Q2) queries with the given
/// disjunction sizes — the "N atomic query parts have already been stored"
/// precondition of the §3.1 experiments. Returns the generated specs so
/// callers can re-issue covered queries ("check succeeds").
struct PrefilledQ1 {
  std::vector<Q1Spec> specs;
};
inline PrefilledQ1 PrefillQ1(const Environment& env,
                             EmptyResultDetector* detector, size_t n_parts,
                             size_t e, size_t f, uint64_t seed) {
  PrefilledQ1 out;
  QueryGenerator gen(&env.instance, seed);
  size_t per_query = e * f;
  while (detector->cache().size() + per_query <= n_parts) {
    Q1Spec spec = gen.GenerateQ1(e, f, /*want_empty=*/true);
    auto parts = DecomposeLogicalPart(env.Plan(spec.ToSql()),
                                      detector->config().dnf);
    if (!parts.ok()) std::abort();
    for (const AtomicQueryPart& part : *parts) {
      detector->cache().Insert(part);
    }
    out.specs.push_back(std::move(spec));
  }
  return out;
}

struct PrefilledQ2 {
  std::vector<Q2Spec> specs;
};
inline PrefilledQ2 PrefillQ2(const Environment& env,
                             EmptyResultDetector* detector, size_t n_parts,
                             size_t e, size_t f, size_t g, uint64_t seed) {
  PrefilledQ2 out;
  QueryGenerator gen(&env.instance, seed);
  size_t per_query = e * f * g;
  while (detector->cache().size() + per_query <= n_parts) {
    Q2Spec spec = gen.GenerateQ2(e, f, g, /*want_empty=*/true);
    auto parts = DecomposeLogicalPart(env.Plan(spec.ToSql()),
                                      detector->config().dnf);
    if (!parts.ok()) std::abort();
    for (const AtomicQueryPart& part : *parts) {
      detector->cache().Insert(part);
    }
    out.specs.push_back(std::move(spec));
  }
  return out;
}

/// §3.1 timing discipline: the reported overhead is the MAXIMUM over the
/// runs (distinct queries); reported query execution time is the MINIMUM.
/// To keep the "max" from measuring container scheduler noise instead of
/// the algorithm, each run is timed `repeats` times and the smallest
/// sample is taken as that run's cost before maximizing across runs.
/// NOTE: use only with side-effect-free `fn` when repeats > 1.
template <typename Fn>
double MaxSeconds(size_t runs, Fn&& fn, size_t repeats = 1) {
  double worst = 0.0;
  for (size_t i = 0; i < runs; ++i) {
    double best = 1e100;
    for (size_t r = 0; r < repeats; ++r) {
      auto start = std::chrono::steady_clock::now();
      fn(i);
      double s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
      best = std::min(best, s);
    }
    worst = std::max(worst, best);
  }
  return worst;
}

template <typename Fn>
double MinSeconds(size_t runs, Fn&& fn) {
  double best = 1e100;
  for (size_t i = 0; i < runs; ++i) {
    auto start = std::chrono::steady_clock::now();
    fn(i);
    double s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    best = std::min(best, s);
  }
  return best;
}

inline void PrintHeader(const char* title, const char* what) {
  std::printf("\n================================================================\n");
  std::printf("%s\n%s\n", title, what);
  std::printf("================================================================\n");
}

}  // namespace erq::bench

