// Quickstart: build a tiny database, run queries through the
// EmptyResultManager, and watch the empty-result cache avoid an execution.
//
//   $ ./example_quickstart

#include <cstdio>

#include "core/manager.h"
#include "core/query_api.h"

using namespace erq;  // examples favor brevity

int main() {
  // 1. Create a catalog and a table.
  Catalog catalog;
  auto products = catalog.CreateTable(
      "products", Schema({{"id", DataType::kInt64},
                          {"category", DataType::kString},
                          {"price", DataType::kDouble}}));
  if (!products.ok()) {
    std::fprintf(stderr, "create table: %s\n",
                 products.status().ToString().c_str());
    return 1;
  }
  const char* categories[] = {"book", "game", "tool"};
  for (int64_t i = 0; i < 300; ++i) {
    products.value()->AppendUnchecked(
        {Value::Int(i), Value::String(categories[i % 3]),
         Value::Double(5.0 + static_cast<double>(i % 50))});
  }

  // 2. Collect statistics (the cost model input, like running ANALYZE).
  StatsCatalog stats;
  if (auto s = stats.AnalyzeAll(catalog); !s.ok()) {
    std::fprintf(stderr, "analyze: %s\n", s.ToString().c_str());
    return 1;
  }

  // 3. Wire up the manager. C_cost = 0 makes every query "high cost" so
  //    the demo always exercises the detection path.
  EmptyResultConfig config;
  config.c_cost = 0.0;
  EmptyResultManager manager(&catalog, &stats, config);

  auto run = [&](const char* sql) {
    // The value-type request API: one QueryRequest in, one outcome out.
    auto outcome = manager.Execute(QueryRequest::Sql(sql));
    if (!outcome.ok()) {
      std::fprintf(stderr, "%s\n",
                   QueryResponse::FromStatus(outcome.status())
                       .ToText().c_str());
      return;
    }
    std::printf("%-70s -> %s, %zu row(s)%s\n", sql,
                outcome->detected_empty ? "DETECTED EMPTY (not executed)"
                                        : "executed",
                outcome->result_rows,
                outcome->aqps_recorded > 0 ? " [harvested into C_aqp]" : "");
  };

  std::printf("== first pass: queries run and empties are harvested ==\n");
  run("select * from products where price > 100.0");
  run("select * from products where category = 'food'");
  run("select * from products where id = 7");

  std::printf("\n== second pass: repeats and refinements skip execution ==\n");
  run("select * from products where price > 100.0");
  // Narrower predicate: covered by the stored more-general part.
  run("select * from products where price > 200.0 and category = 'book'");
  // Different projection: emptiness is projection-independent (T1).
  run("select id from products where category = 'food' order by id");

  std::printf("\n== cache state ==\n");
  const CaqpCache& cache = manager.detector().cache();
  std::printf("stored atomic query parts: %zu\n", cache.size());
  std::printf("lookups=%llu hits=%llu\n",
              static_cast<unsigned long long>(cache.stats_snapshot().lookups),
              static_cast<unsigned long long>(cache.stats_snapshot().hits));

  std::printf("\n== updates invalidate stale knowledge ==\n");
  auto append = catalog.AppendRows(
      "products",
      {{Value::Int(1000), Value::String("food"), Value::Double(250.0)}});
  if (!append.ok()) {
    std::fprintf(stderr, "append: %s\n", append.ToString().c_str());
    return 1;
  }
  run("select * from products where category = 'food'");
  return 0;
}
