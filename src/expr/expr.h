#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "types/value.h"

namespace erq {

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp { kAdd, kSub, kMul, kDiv };

/// Flips the comparison for operand swap: a < b  <=>  b > a.
CompareOp SwapCompareOp(CompareOp op);
/// Logical complement under NOT: not(a < b) => a >= b.
CompareOp NegateCompareOp(CompareOp op);
const char* CompareOpToString(CompareOp op);
const char* ArithOpToString(ArithOp op);

class Expr;
/// Expressions are immutable and shared; DNF expansion aliases subtrees.
using ExprPtr = std::shared_ptr<const Expr>;

/// A scalar / boolean expression tree. Produced by the SQL parser with
/// unresolved column references; the binder (plan module) fills in `slot`.
/// Boolean evaluation follows SQL three-valued logic: NULL operands yield
/// NULL, AND/OR use Kleene semantics, and filters keep only TRUE rows. This
/// makes the NOT-pushdown rewrites of §2.3 semantics-preserving.
class Expr {
 public:
  enum class Kind {
    kColumnRef,  // qualifier.column
    kLiteral,    // value
    kCompare,    // children[0] cmp children[1]
    kBetween,    // children[0] BETWEEN children[1] AND children[2]
    kInList,     // children[0] IN (children[1..])
    kAnd,        // conjunction over children
    kOr,         // disjunction over children
    kNot,        // NOT children[0]
    kArith,      // children[0] op children[1]
    kIsNull,     // children[0] IS NULL (negated => IS NOT NULL)
    kLike,       // children[0] LIKE children[1] (pattern literal);
                 // negated => NOT LIKE. '%' = any run, '_' = any char.
  };

  Kind kind() const { return kind_; }
  const std::string& qualifier() const { return qualifier_; }
  const std::string& column() const { return column_; }
  int slot() const { return slot_; }
  const Value& value() const { return value_; }
  CompareOp compare_op() const { return compare_op_; }
  ArithOp arith_op() const { return arith_op_; }
  bool negated() const { return negated_; }
  const std::vector<ExprPtr>& children() const { return children_; }
  const ExprPtr& child(size_t i) const { return children_[i]; }

  // ---- Factories ----
  static ExprPtr MakeColumnRef(std::string qualifier, std::string column);
  /// A column ref with a pre-resolved slot (used by binder and tests).
  static ExprPtr MakeBoundColumnRef(std::string qualifier, std::string column,
                                    int slot);
  static ExprPtr MakeLiteral(Value v);
  static ExprPtr MakeCompare(CompareOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr MakeBetween(ExprPtr operand, ExprPtr lo, ExprPtr hi,
                             bool negated);
  static ExprPtr MakeInList(ExprPtr operand, std::vector<ExprPtr> list,
                            bool negated);
  /// Flattens nested ANDs; returns TRUE literal for zero children, the
  /// child itself for one.
  static ExprPtr MakeAnd(std::vector<ExprPtr> children);
  static ExprPtr MakeOr(std::vector<ExprPtr> children);
  static ExprPtr MakeNot(ExprPtr child);
  static ExprPtr MakeArith(ArithOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr MakeIsNull(ExprPtr child, bool negated);
  static ExprPtr MakeLike(ExprPtr operand, ExprPtr pattern, bool negated);

  /// Returns a copy of this node with the given children substituted
  /// (arity must match kind).
  ExprPtr WithChildren(std::vector<ExprPtr> children) const;

  /// Returns a copy with slot_ set (for kColumnRef).
  ExprPtr WithSlot(int slot) const;

  /// Structural equality (slots ignored; qualifiers/columns compared
  /// case-insensitively; literal values compared exactly).
  bool Equals(const Expr& other) const;

  /// Structural hash consistent with Equals.
  size_t Hash() const;

  /// SQL-ish rendering for debugging and tests.
  std::string ToString() const;

  /// Collects every distinct column reference (qualifier, column) in the
  /// tree, in first-seen order.
  void CollectColumnRefs(
      std::vector<std::pair<std::string, std::string>>* out) const;

  /// True if any column reference in the tree is unbound (slot < 0).
  bool HasUnboundColumns() const;

 private:
  Expr() = default;

  Kind kind_ = Kind::kLiteral;
  std::string qualifier_;
  std::string column_;
  int slot_ = -1;
  Value value_;
  CompareOp compare_op_ = CompareOp::kEq;
  ArithOp arith_op_ = ArithOp::kAdd;
  bool negated_ = false;
  std::vector<ExprPtr> children_;
};

/// SQL three-valued boolean: evaluation result of a predicate.
enum class TriBool { kFalse = 0, kTrue = 1, kUnknown = 2 };

/// Compares two values with SQL 3VL: a NULL operand gives UNKNOWN, and
/// incomparable types (see TypesComparable) are a BindError.
StatusOr<TriBool> CompareValues(CompareOp op, const Value& a, const Value& b);

/// Evaluates a (bound) scalar expression against `row`. Arithmetic on NULL
/// yields NULL; numeric overflow is not checked; division by zero yields
/// NULL (engine policy, documented); an INT division that is not exact in
/// INT (a remainder, or INT64_MIN / -1) yields a DOUBLE.
StatusOr<Value> EvalScalar(const Expr& expr, const Row& row);

/// Evaluates a (bound) predicate against `row` with SQL 3VL. This is the
/// reference semantics; the executor evaluates predicates through
/// PredicateKernel (expr/kernel.h), which must agree with it on every row.
StatusOr<TriBool> EvalPredicate(const Expr& expr, const Row& row);

/// Convenience: predicate passes iff it evaluates to TRUE.
StatusOr<bool> PredicatePasses(const Expr& expr, const Row& row);

/// SQL LIKE matching: '%' matches any (possibly empty) run, '_' exactly
/// one character; everything else is literal. Case-sensitive.
bool LikeMatches(const std::string& text, const std::string& pattern);

}  // namespace erq

