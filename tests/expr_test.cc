#include "expr/expr.h"

#include <cstdint>
#include <limits>

#include "expr/expr_builder.h"
#include "gtest/gtest.h"

namespace erq {
namespace {

using namespace erq::eb;  // NOLINT

ExprPtr Slot(int slot) { return Expr::MakeBoundColumnRef("t", "c", slot); }

TEST(ExprTest, FactoriesAndAccessors) {
  ExprPtr e = Lt(Col("A", "a"), Int(5));
  EXPECT_EQ(e->kind(), Expr::Kind::kCompare);
  EXPECT_EQ(e->compare_op(), CompareOp::kLt);
  EXPECT_EQ(e->child(0)->qualifier(), "A");
  EXPECT_EQ(e->child(1)->value().AsInt(), 5);
}

TEST(ExprTest, AndOrFlattenAndCollapse) {
  ExprPtr e = And({And({Int(1), Int(2)}), Int(3)});
  EXPECT_EQ(e->kind(), Expr::Kind::kAnd);
  EXPECT_EQ(e->children().size(), 3u);
  EXPECT_EQ(And({Col("t", "x")})->kind(), Expr::Kind::kColumnRef);
  // Empty AND is TRUE, empty OR is FALSE.
  EXPECT_EQ(And({})->value().AsInt(), 1);
  EXPECT_EQ(Or({})->value().AsInt(), 0);
}

TEST(ExprTest, StructuralEqualityIgnoresSlots) {
  ExprPtr a = Eq(Col("T", "C"), Int(1));
  ExprPtr b = Eq(Slot(3), Int(1));
  EXPECT_TRUE(a->Equals(*b));  // case-insensitive names, slots ignored
  EXPECT_EQ(a->Hash(), b->Hash());
  EXPECT_FALSE(a->Equals(*Eq(Col("t", "c"), Int(2))));
  EXPECT_FALSE(a->Equals(*Ne(Col("t", "c"), Int(1))));
}

TEST(ExprTest, LiteralTypeMattersForEquality) {
  EXPECT_FALSE(Int(1)->Equals(*Dbl(1.0)));
  EXPECT_TRUE(Int(1)->Equals(*Int(1)));
}

TEST(ExprTest, CollectColumnRefsDedups) {
  ExprPtr e = And({Eq(Col("a", "x"), Col("b", "y")),
                   Lt(Col("A", "X"), Int(3))});
  std::vector<std::pair<std::string, std::string>> refs;
  e->CollectColumnRefs(&refs);
  EXPECT_EQ(refs.size(), 2u);
}

TEST(ExprTest, HasUnboundColumns) {
  EXPECT_TRUE(Eq(Col("t", "c"), Int(1))->HasUnboundColumns());
  EXPECT_FALSE(Eq(Slot(0), Int(1))->HasUnboundColumns());
}

TEST(EvalTest, ScalarArithmetic) {
  Row row = {Value::Int(6), Value::Int(4)};
  ExprPtr e = Add(Expr::MakeBoundColumnRef("t", "a", 0),
                  Expr::MakeBoundColumnRef("t", "b", 1));
  auto v = EvalScalar(*e, row);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsInt(), 10);
  // Mixed int/double promotes.
  auto d = EvalScalar(*Mul(Dbl(1.5), Int(2)), row);
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(d->AsDouble(), 3.0);
  // Integer division stays exact when divisible, else double.
  auto q1 = EvalScalar(*Div(Int(6), Int(3)), row);
  ASSERT_TRUE(q1.ok());
  EXPECT_EQ(q1->type(), DataType::kInt64);
  auto q2 = EvalScalar(*Div(Int(7), Int(2)), row);
  ASSERT_TRUE(q2.ok());
  EXPECT_DOUBLE_EQ(q2->AsDouble(), 3.5);
}

TEST(EvalTest, DivisionByZeroIsNull) {
  auto v = EvalScalar(*Div(Int(1), Int(0)), {});
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_null());
}

TEST(EvalTest, MinIntDividedByMinusOneIsADoubleNotATrap) {
  // INT64_MIN / -1 overflows INT (and INT64_MIN % -1 traps on x86), so it
  // takes the non-exact path like any other inexact INT division.
  const int64_t min = std::numeric_limits<int64_t>::min();
  auto q = EvalScalar(*Div(Int(min), Int(-1)), {});
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->type(), DataType::kDouble);
  EXPECT_EQ(q->AsDouble(), 9223372036854775808.0);
  // Exact INT divisions by -1 stay INT.
  auto exact = EvalScalar(*Div(Int(min + 1), Int(-1)), {});
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->type(), DataType::kInt64);
  EXPECT_EQ(exact->AsInt(), std::numeric_limits<int64_t>::max());
  auto six = EvalScalar(*Div(Int(-6), Int(-1)), {});
  ASSERT_TRUE(six.ok());
  EXPECT_EQ(six->type(), DataType::kInt64);
  EXPECT_EQ(six->AsInt(), 6);
}

TEST(EvalTest, NullPropagatesThroughArithmetic) {
  auto v = EvalScalar(*Add(Null(), Int(1)), {});
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_null());
}

TEST(EvalTest, DateArithmetic) {
  auto v = EvalScalar(*Add(DateLit("1995-06-17"), Int(3)), {});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->type(), DataType::kDate);
  EXPECT_EQ(Value::Date(v->AsDate()), *&*v);
  auto expect = EvalScalar(*DateLit("1995-06-20"), {});
  EXPECT_EQ(v->AsDate(), expect->AsDate());
}

TEST(EvalTest, ComparisonThreeValuedLogic) {
  // NULL < 5 is UNKNOWN, not false.
  auto t = EvalPredicate(*Lt(Null(), Int(5)), {});
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, TriBool::kUnknown);
  // NOT UNKNOWN is UNKNOWN.
  auto nt = EvalPredicate(*Not(Lt(Null(), Int(5))), {});
  ASSERT_TRUE(nt.ok());
  EXPECT_EQ(*nt, TriBool::kUnknown);
}

TEST(EvalTest, KleeneAndOr) {
  ExprPtr unknown = Lt(Null(), Int(5));
  // FALSE AND UNKNOWN = FALSE.
  auto a = EvalPredicate(*And({Lt(Int(9), Int(5)), unknown}), {});
  EXPECT_EQ(*a, TriBool::kFalse);
  // TRUE AND UNKNOWN = UNKNOWN.
  auto b = EvalPredicate(*And({Lt(Int(1), Int(5)), unknown}), {});
  EXPECT_EQ(*b, TriBool::kUnknown);
  // TRUE OR UNKNOWN = TRUE.
  auto c = EvalPredicate(*Or({Gt(Int(9), Int(5)), unknown}), {});
  EXPECT_EQ(*c, TriBool::kTrue);
  // FALSE OR UNKNOWN = UNKNOWN.
  auto d = EvalPredicate(*Or({Gt(Int(1), Int(5)), unknown}), {});
  EXPECT_EQ(*d, TriBool::kUnknown);
}

TEST(EvalTest, BetweenAndInList) {
  auto in_range = EvalPredicate(*Between(Int(5), Int(1), Int(9)), {});
  EXPECT_EQ(*in_range, TriBool::kTrue);
  auto below = EvalPredicate(*Between(Int(0), Int(1), Int(9)), {});
  EXPECT_EQ(*below, TriBool::kFalse);
  auto found = EvalPredicate(*In(Int(2), {Int(1), Int(2)}), {});
  EXPECT_EQ(*found, TriBool::kTrue);
  auto missing = EvalPredicate(*In(Int(3), {Int(1), Int(2)}), {});
  EXPECT_EQ(*missing, TriBool::kFalse);
  // x IN (1, NULL): unknown when no match but NULL present.
  auto with_null = EvalPredicate(*In(Int(3), {Int(1), Null()}), {});
  EXPECT_EQ(*with_null, TriBool::kUnknown);
}

TEST(EvalTest, IsNull) {
  EXPECT_EQ(*EvalPredicate(*Expr::MakeIsNull(Null(), false), {}),
            TriBool::kTrue);
  EXPECT_EQ(*EvalPredicate(*Expr::MakeIsNull(Int(1), false), {}),
            TriBool::kFalse);
  EXPECT_EQ(*EvalPredicate(*Expr::MakeIsNull(Int(1), true), {}),
            TriBool::kTrue);
}

TEST(EvalTest, IncomparableTypesError) {
  auto r = EvalPredicate(*Lt(Str("a"), Int(1)), {});
  EXPECT_FALSE(r.ok());
  auto a = EvalScalar(*Add(Str("a"), Int(1)), {});
  EXPECT_FALSE(a.ok());
}

TEST(EvalTest, UnboundSlotErrors) {
  auto r = EvalScalar(*Col("t", "c"), {Value::Int(1)});
  EXPECT_FALSE(r.ok());
}

TEST(EvalTest, PredicatePassesOnlyOnTrue) {
  EXPECT_TRUE(*PredicatePasses(*Lt(Int(1), Int(2)), {}));
  EXPECT_FALSE(*PredicatePasses(*Lt(Int(2), Int(1)), {}));
  EXPECT_FALSE(*PredicatePasses(*Lt(Null(), Int(1)), {}));  // unknown
}

TEST(ExprTest, OpHelpers) {
  EXPECT_EQ(SwapCompareOp(CompareOp::kLt), CompareOp::kGt);
  EXPECT_EQ(SwapCompareOp(CompareOp::kEq), CompareOp::kEq);
  EXPECT_EQ(NegateCompareOp(CompareOp::kLt), CompareOp::kGe);
  EXPECT_EQ(NegateCompareOp(CompareOp::kEq), CompareOp::kNe);
  EXPECT_STREQ(CompareOpToString(CompareOp::kLe), "<=");
  EXPECT_STREQ(ArithOpToString(ArithOp::kMul), "*");
}

TEST(ExprTest, ToStringReadable) {
  ExprPtr e = And({Between(Col("A", "a"), Int(50), Int(100)),
                   Eq(Col("A", "c"), Col("B", "d"))});
  std::string s = e->ToString();
  EXPECT_NE(s.find("BETWEEN"), std::string::npos);
  EXPECT_NE(s.find("A.c = B.d"), std::string::npos);
}

}  // namespace
}  // namespace erq
