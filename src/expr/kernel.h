#pragma once

/// \file
/// Bind-once predicate kernels: a bound predicate flattened into one node
/// array that the executor evaluates per row instead of walking the Expr
/// tree. EvalPredicate stays the reference semantics; a kernel returns the
/// same TriBool and the same error on every row.

#include <cstdint>
#include <vector>

#include "expr/expr.h"

namespace erq {

/// A bound predicate compiled into a flat pre-order node array. Operands
/// resolve to a row slot or a literal and are read in place, never copied.
/// A comparison of two INT or two DATE values runs inline; every other
/// comparison goes through CompareValues, so 3VL, NaN ordering and the
/// BindError for incomparable types are exactly EvalPredicate's. AND, OR
/// and NOT are Kleene. Arithmetic and other computed operands go through
/// EvalScalar.
///
/// A kernel owns scratch space for computed operands, so one kernel must
/// not be evaluated from two threads at once. A default-constructed kernel
/// (or one built from a null predicate) passes every row.
class PredicateKernel {
 public:
  PredicateKernel() = default;
  /// Compiles `predicate` (bound: column refs carry slots). Shares
  /// ownership of the tree, whose literals the kernel reads in place.
  explicit PredicateKernel(ExprPtr predicate);

  /// Evaluates the predicate against `row` with SQL 3VL. On error, sets
  /// `*error` (which must be OK on entry) and returns kUnknown.
  TriBool Eval(const Row& row, Status* error) {
    return nodes_.empty() ? TriBool::kTrue : EvalNode(0, row, error);
  }

  /// True iff the predicate is TRUE on `row`; false on FALSE, UNKNOWN, or
  /// an error (then `*error` is set).
  bool Passes(const Row& row, Status* error) {
    return Eval(row, error) == TriBool::kTrue;
  }

 private:
  enum class Op : uint8_t {
    // Predicates; their operands or child predicates follow in pre-order.
    kCompare,  // operands: lhs, rhs
    kBetween,  // operands: value, lo, hi
    kInList,   // operands: value, items...
    kAnd,      // child predicates
    kOr,       // child predicates
    kNot,      // one child predicate
    kIsNull,   // operand: value
    kLike,     // operands: value, pattern
    kTruth,    // operand: a scalar used as a predicate (non-zero is TRUE)
    // Operands (leaves).
    kSlot,     // row[index]
    kLiteral,  // *literal
    kScalar,   // EvalScalar(*expr) into scratch_[index]
  };

  struct Node {
    Op op;
    bool negated;
    CompareOp compare_op;
    uint32_t end;          // one past this node's subtree in nodes_
    uint32_t index;        // kSlot: row slot; kScalar: scratch index
    const Value* literal;  // kLiteral
    const Expr* expr;      // source node: kScalar evaluation, error text
  };

  static size_t CountNodes(const Expr& expr);
  void CompilePredicate(const Expr& expr);
  void CompileOperand(const Expr& expr);

  TriBool EvalNode(uint32_t i, const Row& row, Status* error);
  /// The value operand node `i` denotes, or nullptr with `*error` set.
  const Value* Read(uint32_t i, const Row& row, Status* error) {
    const Node& n = nodes_[i];
    if (n.op == Op::kSlot && n.index < row.size()) return &row[n.index];
    if (n.op == Op::kLiteral) return n.literal;
    return ReadComputed(n, row, error);
  }
  const Value* ReadComputed(const Node& n, const Row& row, Status* error);

  ExprPtr predicate_;
  std::vector<Node> nodes_;
  std::vector<Value> scratch_;  // one per kScalar operand
};

}  // namespace erq
