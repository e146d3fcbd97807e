// google-benchmark microbenchmarks for the hot paths of the method:
// primitive-term coverage, conjunction coverage, C_aqp lookup as a
// function of N, DNF expansion as a function of F, full query
// decomposition, and the end-to-end check.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/string_util.h"
#include "expr/expr_builder.h"

using namespace erq;
using namespace erq::bench;

namespace {

PrimitiveTerm IntervalTerm(int64_t lo, int64_t hi) {
  return PrimitiveTerm::MakeInterval(
      ColumnId::Make("t", "x"),
      ValueInterval::Range(Value::Int(lo), true, Value::Int(hi), true));
}

void BM_TermCovers(benchmark::State& state) {
  PrimitiveTerm wide = IntervalTerm(0, 1000);
  PrimitiveTerm narrow = IntervalTerm(100, 200);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wide.Covers(narrow));
  }
}
BENCHMARK(BM_TermCovers);

void BM_ConjunctionCovers(benchmark::State& state) {
  const int terms = static_cast<int>(state.range(0));
  std::vector<PrimitiveTerm> p_terms, q_terms;
  for (int i = 0; i < terms; ++i) {
    p_terms.push_back(PrimitiveTerm::MakeInterval(
        ColumnId::Make("t", StrCat({"c", std::to_string(i)})),
        ValueInterval::Range(Value::Int(0), true, Value::Int(100), true)));
    q_terms.push_back(PrimitiveTerm::MakeInterval(
        ColumnId::Make("t", StrCat({"c", std::to_string(i)})),
        ValueInterval::Point(Value::Int(50))));
  }
  Conjunction p = Conjunction::Make(std::move(p_terms));
  Conjunction q = Conjunction::Make(std::move(q_terms));
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.Covers(q));
  }
}
BENCHMARK(BM_ConjunctionCovers)->Arg(1)->Arg(3)->Arg(6);

void BM_CacheLookup(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  CaqpCache cache(n + 1);
  for (size_t i = 0; i < n; ++i) {
    cache.Insert(AtomicQueryPart(
        RelationSet({"t"}),
        Conjunction::Make({PrimitiveTerm::MakeInterval(
            ColumnId::Make("t", "x"),
            ValueInterval::Point(Value::Int(static_cast<int64_t>(i))))})));
  }
  // Miss probe: scans the whole entry — the worst case Figure 7 shows
  // growing with N.
  AtomicQueryPart miss(
      RelationSet({"t"}),
      Conjunction::Make({PrimitiveTerm::MakeInterval(
          ColumnId::Make("t", "x"),
          ValueInterval::Point(Value::Int(-1)))}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.CoveredBy(miss));
  }
}
BENCHMARK(BM_CacheLookup)->Arg(1000)->Arg(2000)->Arg(3000);

void BM_DnfExpansion(benchmark::State& state) {
  using namespace erq::eb;
  const int factor = static_cast<int>(state.range(0));
  // (x = 1 or ... e terms) and (y = 1 or ... f terms), F = e * f.
  std::vector<ExprPtr> xs, ys;
  for (int i = 0; i < factor; ++i) {
    xs.push_back(Eq(Col("t", "x"), Int(i)));
    ys.push_back(Eq(Col("t", "y"), Int(i)));
  }
  ExprPtr e = And({Or(std::move(xs)), Or(std::move(ys))});
  for (auto _ : state) {
    auto dnf = ExprToDnf(e);
    benchmark::DoNotOptimize(dnf);
  }
}
BENCHMARK(BM_DnfExpansion)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

struct CheckFixture {
  Environment env = Environment::Build(1.0, 42, 300);
  EmptyResultDetector detector{EmptyResultConfig{}};
  LogicalOpPtr covered_plan;

  CheckFixture() {
    PrefilledQ1 filled = PrefillQ1(env, &detector, 2000, 2, 1, 3);
    covered_plan = env.Plan(filled.specs[0].ToSql());
  }
};

void BM_EndToEndCheckSucceeds(benchmark::State& state) {
  static CheckFixture* fixture = new CheckFixture();
  for (auto _ : state) {
    CheckResult r = fixture->detector.CheckEmpty(fixture->covered_plan);
    if (!r.provably_empty) state.SkipWithError("check unexpectedly failed");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_EndToEndCheckSucceeds);

void BM_DecomposeQ1(benchmark::State& state) {
  static CheckFixture* fixture = new CheckFixture();
  for (auto _ : state) {
    auto parts =
        DecomposeLogicalPart(fixture->covered_plan, DnfOptions{});
    benchmark::DoNotOptimize(parts);
  }
}
BENCHMARK(BM_DecomposeQ1);

}  // namespace

BENCHMARK_MAIN();
