#include "core/cost_gate.h"

#include "core/manager.h"
#include "core/query_api.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace erq {
namespace {

using erq::testing::FixtureDb;

TEST(CostGateTest, FallbackUntilWarm) {
  AdaptiveCostGate gate;
  EXPECT_DOUBLE_EQ(gate.Suggest(123.0), 123.0);
  gate.ObserveExecuted(100.0, 1e-5, 1e-3, false);
  EXPECT_DOUBLE_EQ(gate.Suggest(123.0, /*min_samples=*/50), 123.0);
  EXPECT_EQ(gate.samples(), 1u);
}

TEST(CostGateTest, FitsLinearCostTimeModel) {
  AdaptiveCostGate gate;
  // exec_time = 2e-6 * cost exactly.
  for (int i = 1; i <= 100; ++i) {
    double cost = 100.0 * i;
    gate.ObserveExecuted(cost, /*check=*/1e-5, /*exec=*/2e-6 * cost,
                         /*empty=*/i % 4 == 0);
  }
  EXPECT_NEAR(gate.AlphaSecondsPerCostUnit(), 2e-6, 1e-9);
  EXPECT_NEAR(gate.EmptyFraction(), 0.25, 1e-6);
  EXPECT_NEAR(gate.AverageCheckSeconds(), 1e-5, 1e-9);
}

TEST(CostGateTest, BreakEvenFormula) {
  AdaptiveCostGate gate;
  for (int i = 1; i <= 60; ++i) {
    gate.ObserveExecuted(1000.0, 1e-5, 2e-6 * 1000.0, i % 2 == 0);
  }
  for (int i = 0; i < 60; ++i) {
    gate.ObserveDetected(1000.0, 1e-5);
  }
  // p_empty = (30 + 60) / 120 = 0.75; p_hit = 60/90 = 2/3; p_save = 0.5.
  // C* = 1e-5 / (2e-6 * 0.5) = 10.
  EXPECT_NEAR(gate.EmptyFraction(), 0.75, 1e-6);
  EXPECT_NEAR(gate.HitFraction(), 2.0 / 3.0, 1e-6);
  EXPECT_NEAR(gate.Suggest(0.0), 10.0, 0.5);
}

TEST(CostGateTest, ColdCacheUsesConservativeFloor) {
  AdaptiveCostGate gate;
  // Plenty of executions, no empties ever: p_save floored at 0.01.
  for (int i = 0; i < 100; ++i) {
    gate.ObserveExecuted(1000.0, 1e-5, 2e-3, false);
  }
  double c = gate.Suggest(0.0);
  EXPECT_GT(c, 0.0);
  // check/(alpha * 0.01) = 1e-5 / (2e-6 * 0.01) = 500.
  EXPECT_NEAR(c, 500.0, 25.0);
}

TEST(CostGateTest, ManagerFeedsTheGate) {
  FixtureDb db;
  EmptyResultConfig config;
  config.c_cost = 0.0;
  EmptyResultManager manager(&db.catalog(), &db.stats(), config);
  for (int i = 0; i < 5; ++i) {
    ERQ_ASSERT_OK(
        manager.Execute(
            QueryRequest::Sql("select * from A where a > 100")).status());
    ERQ_ASSERT_OK(
        manager.Execute(QueryRequest::Sql("select * from A")).status());
  }
  CostGateSnapshot gate = manager.cost_gate_snapshot();
  EXPECT_EQ(gate.samples(), 10u);
  EXPECT_GT(gate.empty_fraction, 0.0);
  EXPECT_GT(gate.hit_fraction, 0.0) << "repeats should have been detected";
  EXPECT_GT(gate.average_check_seconds, 0.0);
}

TEST(CostGateTest, AutoTuneTakesOverAfterWarmup) {
  FixtureDb db;
  EmptyResultConfig config;
  config.c_cost = 0.0;
  config.auto_tune_c_cost = true;
  EmptyResultManager manager(&db.catalog(), &db.stats(), config);
  EXPECT_DOUBLE_EQ(manager.EffectiveCostThreshold(), 0.0)
      << "fallback before warmup";
  for (int i = 0; i < 30; ++i) {
    ERQ_ASSERT_OK(
        manager.Execute(
            QueryRequest::Sql("select * from A where a > 100")).status());
    ERQ_ASSERT_OK(
        manager.Execute(
            QueryRequest::Sql("select * from A, B where A.c = B.d")).status());
  }
  // 60 samples >= default 50: the suggestion is now in force.
  double threshold = manager.EffectiveCostThreshold();
  EXPECT_GT(threshold, 0.0);
  // And the pipeline still behaves correctly under the tuned gate.
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome outcome,
                           manager.Execute(QueryRequest::Sql(
                               "select * from A where a > 100")));
  EXPECT_TRUE(outcome.detected_empty || outcome.executed);
}

}  // namespace
}  // namespace erq
