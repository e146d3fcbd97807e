// Faithfulness tests for §2.6's worked examples: where our method must be
// MORE capable than materialized views (projection-blindness), where it is
// deliberately LESS capable (no union-style rewriting), and why merging
// stored parts would be unsound (and therefore must not happen).

#include "core/manager.h"
#include "core/query_api.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace erq {
namespace {

using erq::testing::FixtureDb;

/// A table with a known 2-D distribution on (a, b) so the §2.6 rectangles
/// have controlled emptiness.
class Section26Db {
 public:
  Section26Db() {
    auto t = catalog_.CreateTable(
        "T", Schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}}));
    EXPECT_TRUE(t.ok());
    // Populate everything EXCEPT the union of the three §2.6 rectangles:
    //   MV1: 50<a<80 ∧ 30<b<60,  MV2: 60<a<90,  MV3: 50<a<70 ∧ 50<b<70.
    // (MV2's unrestricted-b version would empty too much; use the paper's
    // second example set: MV2 = 60<a<90 with 30<b<70 context — here we
    // simply carve out the exact union so each MV is empty.)
    for (int64_t a = 0; a <= 100; ++a) {
      for (int64_t b = 0; b <= 100; b += 5) {
        bool in_mv1 = a > 50 && a < 80 && b > 30 && b < 60;
        bool in_mv2 = a > 60 && a < 90;
        bool in_mv3 = a > 50 && a < 70 && b > 50 && b < 70;
        if (in_mv1 || in_mv2 || in_mv3) continue;
        t.value()->AppendUnchecked({Value::Int(a), Value::Int(b)});
      }
    }
    EXPECT_TRUE(stats_.AnalyzeAll(catalog_).ok());
    EmptyResultConfig config;
    config.c_cost = 0.0;
    manager_ = std::make_unique<EmptyResultManager>(&catalog_, &stats_,
                                                    config);
  }

  EmptyResultManager& manager() { return *manager_; }

 private:
  Catalog catalog_;
  StatsCatalog stats_;
  std::unique_ptr<EmptyResultManager> manager_;
};

TEST(Section26Test, UnionRewritingIsDeliberatelyOutOfScope) {
  // The paper: MV1, MV2, MV3 are all empty, and the traditional method can
  // rewrite Q = sigma_{50<a<90 ∧ 30<b<70} as a union over them; "our
  // method cannot tell". Verify our method indeed declines (executes) —
  // and that execution then correctly reports empty and harvests Q itself.
  Section26Db db;
  for (const char* sql :
       {"select * from T where a > 50 and a < 80 and b > 30 and b < 60",
        "select * from T where a > 60 and a < 90",
        "select * from T where a > 50 and a < 70 and b > 50 and b < 70"}) {
    auto outcome = db.manager().Execute(QueryRequest::Sql(sql));
    ASSERT_TRUE(outcome.ok());
    ASSERT_TRUE(outcome->result_empty) << sql;
    ASSERT_TRUE(outcome->executed) << sql;
  }
  // Q is genuinely empty (its rectangle minus b-restriction lies in the
  // carved-out union)...
  std::string q =
      "select * from T where a > 50 and a < 90 and b > 30 and b < 70";
  auto first = db.manager().Execute(QueryRequest::Sql(q));
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->result_empty);
  // ...but our method could NOT deduce it from the three stored parts:
  // it had to execute (the paper's stated trade-off).
  EXPECT_TRUE(first->executed)
      << "union-style rewriting is intentionally not implemented";
  // Q itself was harvested, so the repeat is detected.
  auto second = db.manager().Execute(QueryRequest::Sql(q));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->detected_empty);
}

TEST(Section26Test, NoUnsoundMergingOfStoredParts) {
  // The paper: merging MV1 = sigma_{50<a<80 ∧ 30<b<60} and
  // MV2' = sigma_{60<a<90 ∧ 40<b<70} into sigma_{50<a<90 ∧ 30<b<70} is
  // fine for answering queries but UNSOUND for emptiness. Verify that
  // after storing both parts, a probe inside the merged rectangle but
  // outside both originals is NOT detected empty.
  FixtureDb fixture;  // reuse A(a, b, c): a in 10..19, b = 10a
  EmptyResultConfig config;
  config.c_cost = 0.0;
  EmptyResultManager manager(&fixture.catalog(), &fixture.stats(), config);
  // Both rectangles empty on A (no row has b strictly between these
  // bounds at the probed a-values — construct directly via the detector).
  auto& cache = manager.detector().cache();
  auto rect = [](int64_t a_lo, int64_t a_hi, int64_t b_lo, int64_t b_hi) {
    return AtomicQueryPart(
        RelationSet({"a"}),
        Conjunction::Make(
            {PrimitiveTerm::MakeInterval(
                 ColumnId::Make("a", "a"),
                 ValueInterval::Range(Value::Int(a_lo), false,
                                      Value::Int(a_hi), false)),
             PrimitiveTerm::MakeInterval(
                 ColumnId::Make("a", "b"),
                 ValueInterval::Range(Value::Int(b_lo), false,
                                      Value::Int(b_hi), false))}));
  };
  cache.Insert(rect(10, 13, 155, 165));  // empty: b=10a has no such point
  cache.Insert(rect(12, 15, 175, 185));  // empty likewise
  EXPECT_EQ(cache.size(), 2u) << "parts must be stored separately";
  // Probe inside the merged rectangle (10,15)x(155,185) but outside both
  // originals: a=14, b=160? a=14: first rect needs a<13, second b>175.
  // The real row (a=14, b=140) is outside anyway; craft the probe at a
  // point that the MERGED rectangle would claim empty: a=14, b=160.
  AtomicQueryPart probe(
      RelationSet({"a"}),
      Conjunction::Make(
          {PrimitiveTerm::MakeInterval(ColumnId::Make("a", "a"),
                                       ValueInterval::Point(Value::Int(14))),
           PrimitiveTerm::MakeInterval(
               ColumnId::Make("a", "b"),
               ValueInterval::Point(Value::Int(160)))}));
  EXPECT_FALSE(cache.CoveredBy(probe))
      << "covering this probe would require the unsound merge";
}

TEST(Section26Test, ProjectionBlindnessBeatsMaterializedViews) {
  // The paper's Q3 = pi(A join B) example: knowing the projected join is
  // empty proves the unprojected join (and any further-filtered variant)
  // is empty — something plain view matching cannot conclude.
  FixtureDb db;
  EmptyResultConfig config;
  config.c_cost = 0.0;
  EmptyResultManager manager(&db.catalog(), &db.stats(), config);
  // pi over a join made empty by an impossible join value range.
  ERQ_ASSERT_OK(
      manager
          .Execute(QueryRequest::Sql(
              "select distinct A.b from A, B "
              "where A.c = B.d and B.d > 90"))
          .status());
  // Q1-analogue: the unprojected join.
  ERQ_ASSERT_OK_AND_ASSIGN(
      QueryOutcome q1,
      manager.Execute(QueryRequest::Sql(
          "select * from A, B where A.c = B.d and B.d > 90")));
  EXPECT_TRUE(q1.detected_empty);
  // Q2-analogue: extra selection on a projected-out column.
  ERQ_ASSERT_OK_AND_ASSIGN(
      QueryOutcome q2,
      manager.Execute(QueryRequest::Sql(
          "select A.b from A, B "
          "where A.c = B.d and B.d > 90 and A.a = 12")));
  EXPECT_TRUE(q2.detected_empty);
}

}  // namespace
}  // namespace erq
