#include "expr/normalize.h"

#include <random>

#include "expr/expr_builder.h"
#include "gtest/gtest.h"

namespace erq {
namespace {

using namespace erq::eb;  // NOLINT

ExprPtr BoundCol(int slot) { return Expr::MakeBoundColumnRef("t", "x", slot); }

bool ContainsKind(const ExprPtr& e, Expr::Kind kind) {
  if (e->kind() == kind) return true;
  for (const ExprPtr& c : e->children()) {
    if (ContainsKind(c, kind)) return true;
  }
  return false;
}

TEST(NormalizeTest, NotOverComparisonUsesComplementOp) {
  auto n = NormalizeToNnf(Not(Lt(Col("t", "a"), Int(20))));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ((*n)->kind(), Expr::Kind::kCompare);
  EXPECT_EQ((*n)->compare_op(), CompareOp::kGe);
}

TEST(NormalizeTest, DoubleNegationCancels) {
  ExprPtr e = Lt(Col("t", "a"), Int(20));
  auto n = NormalizeToNnf(Not(Not(e)));
  ASSERT_TRUE(n.ok());
  EXPECT_TRUE((*n)->Equals(*e));
}

TEST(NormalizeTest, DeMorgan) {
  auto n = NormalizeToNnf(
      Not(And({Lt(Col("t", "a"), Int(1)), Gt(Col("t", "b"), Int(2))})));
  ASSERT_TRUE(n.ok());
  ASSERT_EQ((*n)->kind(), Expr::Kind::kOr);
  EXPECT_EQ((*n)->child(0)->compare_op(), CompareOp::kGe);
  EXPECT_EQ((*n)->child(1)->compare_op(), CompareOp::kLe);
}

TEST(NormalizeTest, NotBetweenBecomesDisjunction) {
  auto n = NormalizeToNnf(
      Not(Between(Col("t", "a"), Int(10), Int(20))));
  ASSERT_TRUE(n.ok());
  ASSERT_EQ((*n)->kind(), Expr::Kind::kOr);
  EXPECT_EQ((*n)->child(0)->compare_op(), CompareOp::kLt);
  EXPECT_EQ((*n)->child(1)->compare_op(), CompareOp::kGt);
}

TEST(NormalizeTest, InListBecomesOrOfEq) {
  auto n = NormalizeToNnf(In(Col("t", "a"), {Int(1), Int(2)}));
  ASSERT_TRUE(n.ok());
  ASSERT_EQ((*n)->kind(), Expr::Kind::kOr);
  EXPECT_EQ((*n)->child(0)->compare_op(), CompareOp::kEq);
}

TEST(NormalizeTest, NotInBecomesAndOfNe) {
  auto n = NormalizeToNnf(Not(In(Col("t", "a"), {Int(1), Int(2)})));
  ASSERT_TRUE(n.ok());
  ASSERT_EQ((*n)->kind(), Expr::Kind::kAnd);
  EXPECT_EQ((*n)->child(0)->compare_op(), CompareOp::kNe);
}

TEST(NormalizeTest, IsNullAbsorbsNegation) {
  auto n = NormalizeToNnf(Not(Expr::MakeIsNull(Col("t", "a"), false)));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ((*n)->kind(), Expr::Kind::kIsNull);
  EXPECT_TRUE((*n)->negated());
}

TEST(NormalizeTest, OutputHasNoNotOrInList) {
  ExprPtr e = Not(Or({Not(In(Col("t", "a"), {Int(1)})),
                      And({Not(Between(Col("t", "b"), Int(1), Int(2))),
                           Not(Not(Lt(Col("t", "c"), Int(3))))})}));
  auto n = NormalizeToNnf(e);
  ASSERT_TRUE(n.ok());
  EXPECT_FALSE(ContainsKind(*n, Expr::Kind::kNot));
  EXPECT_FALSE(ContainsKind(*n, Expr::Kind::kInList));
}

// Property: under SQL 3VL, normalization preserves the truth value on
// every row. Random expression trees over two INT columns (with NULLs).
class NormalizeEquivalenceTest : public ::testing::TestWithParam<int> {};

ExprPtr RandomPredicate(std::mt19937_64& rng, int depth) {
  auto col = [&] { return BoundCol(static_cast<int>(rng() % 2)); };
  auto lit = [&]() -> ExprPtr {
    int r = static_cast<int>(rng() % 8);
    if (r == 7) return Null();
    return Int(r);
  };
  if (depth == 0 || rng() % 3 == 0) {
    switch (rng() % 4) {
      case 0:
        return Expr::MakeCompare(static_cast<CompareOp>(rng() % 6), col(),
                                 lit());
      case 1:
        return Between(col(), lit(), lit());
      case 2:
        return In(col(), {lit(), lit()});
      default:
        return Expr::MakeIsNull(col(), rng() % 2 == 0);
    }
  }
  switch (rng() % 3) {
    case 0:
      return And({RandomPredicate(rng, depth - 1),
                  RandomPredicate(rng, depth - 1)});
    case 1:
      return Or({RandomPredicate(rng, depth - 1),
                 RandomPredicate(rng, depth - 1)});
    default:
      return Not(RandomPredicate(rng, depth - 1));
  }
}

TEST_P(NormalizeEquivalenceTest, PreservesTruthValueUnder3VL) {
  std::mt19937_64 rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    ExprPtr e = RandomPredicate(rng, 3);
    auto n = NormalizeToNnf(e);
    ASSERT_TRUE(n.ok()) << e->ToString();
    for (int64_t x = -1; x < 8; ++x) {
      for (int64_t y = -1; y < 8; ++y) {
        Row row;
        row.push_back(x < 0 ? Value::Null() : Value::Int(x));
        row.push_back(y < 0 ? Value::Null() : Value::Int(y));
        auto before = EvalPredicate(*e, row);
        auto after = EvalPredicate(**n, row);
        ASSERT_TRUE(before.ok() && after.ok());
        ASSERT_EQ(*before, *after)
            << "expr: " << e->ToString() << "\nnnf: " << (*n)->ToString()
            << "\nrow: (" << x << ", " << y << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormalizeEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(RewriteQualifiersTest, RenamesAndErrorsOnMissing) {
  ExprPtr e = Eq(Col("o", "orderkey"), Col("l", "orderkey"));
  std::unordered_map<std::string, std::string> map = {{"o", "orders"},
                                                      {"l", "lineitem"}};
  auto r = RewriteQualifiers(e, map);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->child(0)->qualifier(), "orders");
  EXPECT_EQ((*r)->child(1)->qualifier(), "lineitem");

  std::unordered_map<std::string, std::string> incomplete = {{"o", "orders"}};
  EXPECT_FALSE(RewriteQualifiers(e, incomplete).ok());
}

}  // namespace
}  // namespace erq
