// "Dynamic HomeFinder"-style exploration (Williamson & Shneiderman, cited
// by the paper; IBM's real-estate application reported 5.75 % empty
// queries). Users drag range sliders — price, bedrooms, distance — which
// generates a stream of interval (BETWEEN) queries. Overshooting a slider
// produces empty regions; interval coverage means ONE remembered empty
// probe silences every narrower probe inside it, exactly the Case-2
// geometry of §3.2.
//
//   $ ./example_homefinder

#include <cstdio>
#include <random>

#include "core/manager.h"
#include "core/query_api.h"

using namespace erq;

int main() {
  Catalog catalog;
  auto listings = catalog.CreateTable(
      "listings", Schema({{"id", DataType::kInt64},
                          {"price", DataType::kInt64},
                          {"bedrooms", DataType::kInt64},
                          {"distance", DataType::kDouble},
                          {"neighborhood", DataType::kString}}));
  if (!listings.ok()) return 1;

  // Market reality: nothing under $90k, nothing above $950k, nothing with
  // more than 6 bedrooms, nothing further than 40 km out.
  std::mt19937_64 rng(2026);
  const char* hoods[] = {"north", "south", "east", "west", "center"};
  for (int64_t i = 0; i < 40000; ++i) {
    listings.value()->AppendUnchecked(
        {Value::Int(i),
         Value::Int(90000 + static_cast<int64_t>(rng() % 860000)),
         Value::Int(1 + static_cast<int64_t>(rng() % 6)),
         Value::Double(0.5 + static_cast<double>(rng() % 395) / 10.0),
         Value::String(hoods[rng() % 5])});
  }
  StatsCatalog stats;
  if (!stats.AnalyzeAll(catalog).ok()) return 1;

  EmptyResultConfig config;
  config.c_cost = 0.0;
  config.auto_tune_c_cost = true;  // let past statistics set the gate
  EmptyResultManager manager(&catalog, &stats, config);

  auto slide = [&](const char* gesture, const std::string& where) {
    std::string sql = "select * from listings where " + where;
    auto outcome = manager.Execute(QueryRequest::Sql(sql));
    if (!outcome.ok()) {
      std::fprintf(stderr, "%s\n", outcome.status().ToString().c_str());
      std::exit(1);
    }
    std::printf("  %-42s -> %s\n", gesture,
                outcome->detected_empty
                    ? "empty (answered from C_aqp, instant)"
                    : (outcome->result_empty
                           ? "empty (executed to find out)"
                           : (std::to_string(outcome->result_rows) +
                              " listings")
                                 .c_str()));
  };

  std::printf("slider session over %zu listings\n\n",
              listings.value()->num_rows());

  std::printf("-- hunting for a bargain --\n");
  slide("price <= 120k", "price between 90000 and 120000");
  slide("price <= 80k (overshoot)", "price between 0 and 80000");
  slide("price <= 70k (narrower: cached)", "price between 0 and 70000");
  slide("price 50k-60k (inside: cached)", "price between 50000 and 60000");

  std::printf("\n-- mansion hunting --\n");
  slide("8+ bedrooms (overshoot)", "bedrooms >= 8");
  slide("10+ bedrooms (narrower: cached)", "bedrooms >= 10");
  slide("9 bedrooms exactly (cached)", "bedrooms = 9");
  slide("5+ bedrooms (real)", "bedrooms >= 5");

  std::printf("\n-- combining sliders --\n");
  // A remembered interval covers narrower probes with EXTRA predicates
  // too (n <= m rule): one empty price band silences "price band AND
  // anything".
  slide("price 10k-75k + 3 beds (cached)",
        "price between 10000 and 75000 and bedrooms >= 3");
  // But an empty CONJUNCTION cannot be blamed on either slider alone:
  // probing the distance axis by itself must execute once...
  slide("too far out (executes once)", "distance > 45.0");
  // ...after which distance knowledge composes with everything else.
  slide("far-out center (now cached)",
        "distance between 50.0 and 60.0 and neighborhood = 'center'");

  const ManagerStats& ms = manager.stats_snapshot();
  std::printf("\nsession: %llu gestures, %llu executed, %llu answered from "
              "C_aqp; %zu stored parts; tuned C_cost = %.1f\n",
              (unsigned long long)ms.queries,
              (unsigned long long)ms.executed,
              (unsigned long long)ms.detected_empty,
              manager.detector().cache().size(),
              manager.cost_gate_snapshot().Suggest(config.c_cost,
                                                   /*min_samples=*/5));
  return 0;
}
