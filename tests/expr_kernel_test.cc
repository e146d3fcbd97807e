// PredicateKernel against EvalPredicate, the reference semantics: seeded
// random predicates over every node kind, with column, literal and
// arithmetic operands, evaluated on random rows that mix NULL, INT,
// DOUBLE (NaN included), STRING and DATE, mismatched types, and column
// references past the end of the row. Every pair must give the same
// TriBool and the same error (or both throw).

#include "expr/kernel.h"

#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <variant>
#include <vector>

#include "common/string_util.h"
#include "expr/expr_builder.h"
#include "gtest/gtest.h"

namespace erq {
namespace {

using namespace erq::eb;  // NOLINT

constexpr int kWidth = 4;  // row width; slot kWidth is out of range

class Gen {
 public:
  explicit Gen(uint64_t seed) : rng_(seed) {}

  int Pick(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }
  bool Chance(int percent) { return Pick(100) < percent; }

  /// Per-slot "declared" types: a row uses them most of the time, and
  /// strays to another type (or NULL) otherwise.
  void NewSchema() {
    for (DataType& t : schema_) t = RandomType();
  }

  Value RandomValue(DataType type) {
    switch (type) {
      case DataType::kNull:
        return Value::Null();
      case DataType::kInt64:
        return Value::Int(Pick(11) - 5);
      case DataType::kDouble:
        if (Chance(15)) return Value::Double(std::nan(""));
        return Value::Double((Pick(21) - 10) / 2.0);
      case DataType::kString: {
        static const char* const kTexts[] = {"", "a", "ab", "abc", "b", "cab"};
        return Value::String(kTexts[Pick(6)]);
      }
      case DataType::kDate:
        return Value::Date(Pick(7) - 3);
    }
    return Value::Null();
  }

  Row RandomRow() {
    Row row;
    for (DataType t : schema_) {
      if (Chance(10)) {
        row.push_back(Value::Null());
      } else {
        row.push_back(RandomValue(Chance(85) ? t : RandomType()));
      }
    }
    return row;
  }

  ExprPtr Operand(int depth) {
    const int roll = Pick(100);
    if (roll < 45) {
      // A bound column; rarely past the row's end, or unbound.
      int slot = Pick(kWidth);
      if (Chance(3)) slot = kWidth;
      if (Chance(2)) return Col("t", "unbound");
      return Expr::MakeBoundColumnRef("t", StrCat({"c", std::to_string(slot)}),
                                      slot);
    }
    if (roll < 80 || depth <= 0) {
      if (Chance(10)) return Null();
      const DataType t = Chance(70) ? schema_[Pick(kWidth)] : RandomType();
      return Expr::MakeLiteral(RandomValue(t));
    }
    if (roll < 95) {
      static const ArithOp kOps[] = {ArithOp::kAdd, ArithOp::kSub,
                                     ArithOp::kMul, ArithOp::kDiv};
      return Expr::MakeArith(kOps[Pick(4)], Operand(depth - 1),
                             Operand(depth - 1));
    }
    return Predicate(depth - 1);  // a boolean used as a scalar: 1/0/NULL
  }

  ExprPtr Predicate(int depth) {
    const int kinds = depth > 0 ? 12 : 8;
    switch (Pick(kinds)) {
      case 0:
      case 1: {
        static const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe,
                                         CompareOp::kLt, CompareOp::kLe,
                                         CompareOp::kGt, CompareOp::kGe};
        return Expr::MakeCompare(kOps[Pick(6)], Operand(depth),
                                 Operand(depth));
      }
      case 2:
        return Expr::MakeBetween(Operand(depth), Operand(depth),
                                 Operand(depth), Chance(50));
      case 3: {
        std::vector<ExprPtr> items;
        for (int i = 0, n = 1 + Pick(4); i < n; ++i) {
          items.push_back(Operand(depth));
        }
        return Expr::MakeInList(Operand(depth), std::move(items), Chance(50));
      }
      case 4:
        return Expr::MakeIsNull(Operand(depth), Chance(50));
      case 5: {
        static const char* const kPatterns[] = {"a%", "%b", "_", "a_c", "%",
                                                "ab"};
        ExprPtr pattern = Chance(80) ? Str(kPatterns[Pick(6)]) : Operand(0);
        return Expr::MakeLike(Operand(depth), std::move(pattern), Chance(50));
      }
      case 6:
        return Operand(depth);  // a scalar used as a predicate
      case 7:
        return Chance(50) ? And({}) : Or({});  // constant TRUE / FALSE
      case 8:
      case 9: {
        std::vector<ExprPtr> children;
        for (int i = 0, n = 2 + Pick(3); i < n; ++i) {
          children.push_back(Predicate(depth - 1));
        }
        return Pick(2) == 0 ? Expr::MakeAnd(std::move(children))
                            : Expr::MakeOr(std::move(children));
      }
      default:
        return Expr::MakeNot(Predicate(depth - 1));
    }
  }

 private:
  DataType RandomType() {
    static const DataType kTypes[] = {DataType::kInt64, DataType::kDouble,
                                      DataType::kString, DataType::kDate};
    return kTypes[Pick(4)];
  }

  std::mt19937_64 rng_;
  DataType schema_[kWidth] = {};
};

/// One evaluation's observable outcome.
struct Outcome {
  bool threw = false;
  TriBool value = TriBool::kUnknown;
  Status status;

  bool operator==(const Outcome& o) const {
    return threw == o.threw && status == o.status &&
           (threw || !status.ok() || value == o.value);
  }
};

std::string Describe(const Outcome& o) {
  if (o.threw) return "threw";
  if (!o.status.ok()) return o.status.ToString();
  return o.value == TriBool::kTrue    ? "TRUE"
         : o.value == TriBool::kFalse ? "FALSE"
                                      : "UNKNOWN";
}

// A scalar STRING used as a predicate reads Value::AsDouble(), which
// throws on both sides; the kernel must throw where the reference does.
Outcome Reference(const Expr& predicate, const Row& row) {
  Outcome out;
  try {
    StatusOr<TriBool> t = EvalPredicate(predicate, row);
    if (t.ok()) {
      out.value = *t;
    } else {
      out.status = t.status();
    }
  } catch (const std::bad_variant_access&) {
    out.threw = true;
  }
  return out;
}

Outcome Kernel(PredicateKernel& kernel, const Row& row) {
  Outcome out;
  try {
    out.value = kernel.Eval(row, &out.status);
  } catch (const std::bad_variant_access&) {
    out.threw = true;
  }
  return out;
}

std::string RenderRow(const Row& row) {
  std::string out = "[";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  return out + "]";
}

TEST(PredicateKernelTest, MatchesEvalPredicateOnRandomPredicatesAndRows) {
  constexpr int kPredicatesPerSeed = 400;
  constexpr int kRowsPerPredicate = 24;
  size_t errors = 0, trues = 0, falses = 0, unknowns = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Gen gen(seed);
    for (int p = 0; p < kPredicatesPerSeed; ++p) {
      if (p % 20 == 0) gen.NewSchema();
      ExprPtr predicate = gen.Predicate(3);
      PredicateKernel kernel(predicate);
      for (int r = 0; r < kRowsPerPredicate; ++r) {
        // Rows are sometimes one short, so in-range slots fall off too.
        Row row = gen.RandomRow();
        if (gen.Chance(3)) row.pop_back();
        const Outcome want = Reference(*predicate, row);
        const Outcome got = Kernel(kernel, row);
        ASSERT_TRUE(got == want)
            << "seed " << seed << " predicate #" << p << " row #" << r
            << "\n  predicate: " << predicate->ToString()
            << "\n  row: " << RenderRow(row)
            << "\n  EvalPredicate: " << Describe(want)
            << "\n  kernel: " << Describe(got);
        if (want.threw || !want.status.ok()) {
          ++errors;
        } else if (want.value == TriBool::kTrue) {
          ++trues;
        } else if (want.value == TriBool::kFalse) {
          ++falses;
        } else {
          ++unknowns;
        }
      }
    }
  }
  // The generator must exercise every outcome, not just errors.
  EXPECT_GT(trues, 5000u);
  EXPECT_GT(falses, 5000u);
  EXPECT_GT(unknowns, 1000u);
  EXPECT_GT(errors, 1000u);
}

TEST(PredicateKernelTest, EmptyKernelPassesEveryRow) {
  PredicateKernel none;
  PredicateKernel null_predicate(nullptr);
  Status error;
  EXPECT_TRUE(none.Passes({}, &error));
  EXPECT_TRUE(null_predicate.Passes({Value::Null()}, &error));
  EXPECT_TRUE(error.ok());
}

TEST(PredicateKernelTest, ReportsTheReferenceErrors) {
  const Row row = {Value::Int(1), Value::String("x")};
  auto check = [&row](const ExprPtr& predicate, StatusCode code) {
    PredicateKernel kernel(predicate);
    Status error;
    EXPECT_FALSE(kernel.Passes(row, &error)) << predicate->ToString();
    EXPECT_EQ(error.code(), code) << predicate->ToString();
    EXPECT_EQ(error, EvalPredicate(*predicate, row).status());
  };
  ExprPtr a = Expr::MakeBoundColumnRef("t", "a", 0);
  ExprPtr s = Expr::MakeBoundColumnRef("t", "s", 1);
  ExprPtr past_end = Expr::MakeBoundColumnRef("t", "z", 2);
  check(Lt(a, s), StatusCode::kBindError);
  check(Lt(past_end, Int(1)), StatusCode::kInternal);
  check(Lt(Col("t", "unbound"), Int(1)), StatusCode::kInternal);
  check(Expr::MakeLike(a, Str("%"), false), StatusCode::kBindError);
  check(Lt(Add(s, Int(1)), Int(1)), StatusCode::kBindError);
  // An AND stops at its first FALSE child, before a later error; an
  // UNKNOWN child does not stop it.
  PredicateKernel stops(And({Lt(a, Int(0)), Lt(a, s)}));
  Status error;
  EXPECT_EQ(stops.Eval(row, &error), TriBool::kFalse);
  EXPECT_TRUE(error.ok());
  check(And({Lt(Null(), Int(0)), Lt(a, s)}), StatusCode::kBindError);
}

}  // namespace
}  // namespace erq
