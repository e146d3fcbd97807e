// Zone-map maintenance under concurrent mutation: writers append and
// delete through the table's internal lock while readers take partition
// snapshots and check their invariants. Runs under TSan via the
// "concurrency" ctest label.

#include <atomic>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/partition.h"
#include "catalog/table.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace erq {
namespace {

PartitionScheme RangeScheme() {
  PartitionScheme s;
  s.kind = PartitionScheme::Kind::kRange;
  s.key_column = std::string("k");
  s.range_bounds = {Value::Int(100), Value::Int(200), Value::Int(300)};
  return s;
}

TEST(PartitionConcurrency, SnapshotReadersSeeConsistentState) {
  Table table("t", Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}}));
  ERQ_ASSERT_OK(table.SetPartitioning(RangeScheme()));

  constexpr int kWriters = 3;
  constexpr int kRowsPerWriter = 400;
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&table, w] {
      for (int64_t i = 0; i < kRowsPerWriter; ++i) {
        int64_t key = (w * kRowsPerWriter + i) % 400;
        ASSERT_TRUE(
            table.AppendAll({{Value::Int(key), Value::Int(key * 10)}}).ok());
      }
    });
  }

  // Readers continuously snapshot and verify internal consistency: every
  // row id in bounds, per-partition counts summing to the snapshot's row
  // total, zone maps covering at least the rows counted.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&table, &stop] {
      while (!stop.load(std::memory_order_acquire)) {
        auto snap = table.partition_snapshot();
        ASSERT_NE(snap, nullptr);
        size_t total = 0;
        for (const PartitionState& p : snap->partitions) {
          total += p.row_count();
          ASSERT_EQ(p.columns.size(), 2u);
          if (p.row_count() > 0) {
            ASSERT_TRUE(p.columns[0].min.has_value());
            ASSERT_TRUE(p.columns[0].max.has_value());
            ASSERT_LE(p.columns[0].min->Compare(*p.columns[0].max), 0);
            ASSERT_EQ(p.columns[0].non_null, p.row_count());
          }
        }
        ASSERT_EQ(total, static_cast<size_t>(
                             snap->partitions[0].row_count() +
                             snap->partitions[1].row_count() +
                             snap->partitions[2].row_count() +
                             snap->partitions[3].row_count()));
      }
    });
  }

  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  // Final state is exact.
  auto snap = table.partition_snapshot();
  ASSERT_NE(snap, nullptr);
  size_t total = 0;
  for (const PartitionState& p : snap->partitions) total += p.row_count();
  EXPECT_EQ(total, static_cast<size_t>(kWriters * kRowsPerWriter));
  EXPECT_EQ(table.num_rows(), total);
}

TEST(PartitionConcurrency, ConcurrentAppendAndDelete) {
  Table table("t", Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}}));
  ERQ_ASSERT_OK(table.SetPartitioning(RangeScheme()));
  for (int64_t i = 0; i < 400; ++i) {
    table.AppendUnchecked({Value::Int(i), Value::Int(i)});
  }

  std::thread appender([&table] {
    for (int64_t i = 0; i < 300; ++i) {
      ASSERT_TRUE(
          table.AppendAll({{Value::Int(i % 400), Value::Int(-i)}}).ok());
    }
  });
  std::thread deleter([&table] {
    for (int round = 0; round < 20; ++round) {
      int64_t cut = (round % 4) * 100;
      table.DeleteWhere([cut](const Row& r) {
        return r[0].Compare(Value::Int(cut)) == 0;
      });
    }
  });
  std::thread snapshotter([&table] {
    for (int i = 0; i < 200; ++i) {
      auto snap = table.partition_snapshot();
      ASSERT_NE(snap, nullptr);
      ASSERT_EQ(snap->partitions.size(), 4u);
    }
  });

  appender.join();
  deleter.join();
  snapshotter.join();

  // The final snapshot matches a from-scratch recount of the rows.
  auto snap = table.partition_snapshot();
  ASSERT_NE(snap, nullptr);
  PartitionScheme scheme = table.partition_scheme();
  std::vector<size_t> expected(4, 0);
  for (const Row& r : table.rows()) ++expected[scheme.PartitionOf(r[0])];
  for (size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(snap->partitions[k].row_count(), expected[k]) << "partition "
                                                            << k;
  }
}

}  // namespace
}  // namespace erq
