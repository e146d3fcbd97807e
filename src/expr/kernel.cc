#include "expr/kernel.h"

#include <cassert>

namespace erq {

namespace {

TriBool Tri(bool b) { return b ? TriBool::kTrue : TriBool::kFalse; }

/// `op` over two values: inline for two INTs or two DATEs, CompareValues
/// (the reference) for everything else, NULLs included. On error sets
/// `*error` and returns kUnknown.
inline TriBool CompareFast(CompareOp op, const Value& a, const Value& b,
                           Status* error) {
  const DataType type = a.type();
  if (type == b.type() &&
      (type == DataType::kInt64 || type == DataType::kDate)) {
    const int64_t x = a.AsInt();
    const int64_t y = b.AsInt();
    switch (op) {
      case CompareOp::kEq:
        return Tri(x == y);
      case CompareOp::kNe:
        return Tri(x != y);
      case CompareOp::kLt:
        return Tri(x < y);
      case CompareOp::kLe:
        return Tri(x <= y);
      case CompareOp::kGt:
        return Tri(x > y);
      case CompareOp::kGe:
        return Tri(x >= y);
    }
  }
  StatusOr<TriBool> t = CompareValues(op, a, b);
  if (!t.ok()) {
    *error = t.status();
    return TriBool::kUnknown;
  }
  return *t;
}

}  // namespace

PredicateKernel::PredicateKernel(ExprPtr predicate)
    : predicate_(std::move(predicate)) {
  if (predicate_ == nullptr) return;
  nodes_.reserve(CountNodes(*predicate_));
  CompilePredicate(*predicate_);
}

size_t PredicateKernel::CountNodes(const Expr& expr) {
  switch (expr.kind()) {
    case Expr::Kind::kCompare:
    case Expr::Kind::kBetween:
    case Expr::Kind::kInList:
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr:
    case Expr::Kind::kNot:
    case Expr::Kind::kIsNull:
    case Expr::Kind::kLike: {
      size_t n = 1;
      for (const ExprPtr& c : expr.children()) n += CountNodes(*c);
      return n;
    }
    default:
      return 2;  // kTruth over one operand
  }
}

void PredicateKernel::CompilePredicate(const Expr& expr) {
  const size_t at = nodes_.size();
  Node node{};
  node.compare_op = expr.compare_op();
  node.negated = expr.negated();
  node.expr = &expr;
  bool operands = true;
  switch (expr.kind()) {
    case Expr::Kind::kCompare:
      node.op = Op::kCompare;
      break;
    case Expr::Kind::kBetween:
      node.op = Op::kBetween;
      break;
    case Expr::Kind::kInList:
      node.op = Op::kInList;
      break;
    case Expr::Kind::kIsNull:
      node.op = Op::kIsNull;
      break;
    case Expr::Kind::kLike:
      node.op = Op::kLike;
      break;
    case Expr::Kind::kAnd:
      node.op = Op::kAnd;
      operands = false;
      break;
    case Expr::Kind::kOr:
      node.op = Op::kOr;
      operands = false;
      break;
    case Expr::Kind::kNot:
      node.op = Op::kNot;
      operands = false;
      break;
    default:
      // A literal, column or arithmetic used as a predicate.
      node.op = Op::kTruth;
      nodes_.push_back(node);
      CompileOperand(expr);
      nodes_[at].end = static_cast<uint32_t>(nodes_.size());
      return;
  }
  nodes_.push_back(node);
  for (const ExprPtr& c : expr.children()) {
    if (operands) {
      CompileOperand(*c);
    } else {
      CompilePredicate(*c);
    }
  }
  nodes_[at].end = static_cast<uint32_t>(nodes_.size());
}

void PredicateKernel::CompileOperand(const Expr& expr) {
  Node node{};
  node.expr = &expr;
  node.end = static_cast<uint32_t>(nodes_.size() + 1);
  if (expr.kind() == Expr::Kind::kColumnRef && expr.slot() >= 0) {
    // An out-of-range slot falls back to EvalScalar, which reports it.
    node.op = Op::kSlot;
    node.index = static_cast<uint32_t>(expr.slot());
  } else if (expr.kind() == Expr::Kind::kLiteral) {
    node.op = Op::kLiteral;
    node.literal = &expr.value();
  } else {
    node.op = Op::kScalar;
    node.index = static_cast<uint32_t>(scratch_.size());
    scratch_.emplace_back();
  }
  nodes_.push_back(node);
}

const Value* PredicateKernel::ReadComputed(const Node& n, const Row& row,
                                           Status* error) {
  StatusOr<Value> v = EvalScalar(*n.expr, row);
  if (!v.ok()) {
    *error = v.status();
    return nullptr;
  }
  // Only kScalar nodes get here with a value: a kSlot node reaches
  // EvalScalar only when its slot is out of range, which is an error.
  assert(n.op == Op::kScalar);
  Value& out = scratch_[n.index];
  out = std::move(v).value();
  return &out;
}

// Evaluation order (operands left to right, each read before any
// comparison that uses it) and short-circuiting follow EvalPredicate
// exactly, so both report the same first error. Every error path returns
// kUnknown, so AND and OR test `*error` only on an UNKNOWN child.
TriBool PredicateKernel::EvalNode(uint32_t i, const Row& row, Status* error) {
  const Node& n = nodes_[i];
  switch (n.op) {
    case Op::kCompare: {
      const Value* a = Read(i + 1, row, error);
      if (a == nullptr) return TriBool::kUnknown;
      const Value* b = Read(i + 2, row, error);
      if (b == nullptr) return TriBool::kUnknown;
      return CompareFast(n.compare_op, *a, *b, error);
    }
    case Op::kAnd: {
      TriBool acc = TriBool::kTrue;
      for (uint32_t c = i + 1; c < n.end; c = nodes_[c].end) {
        const TriBool t = EvalNode(c, row, error);
        if (t == TriBool::kFalse) return TriBool::kFalse;
        if (t == TriBool::kUnknown) {
          if (!error->ok()) return TriBool::kUnknown;
          acc = TriBool::kUnknown;
        }
      }
      return acc;
    }
    case Op::kOr: {
      TriBool acc = TriBool::kFalse;
      for (uint32_t c = i + 1; c < n.end; c = nodes_[c].end) {
        const TriBool t = EvalNode(c, row, error);
        if (t == TriBool::kTrue) return TriBool::kTrue;
        if (t == TriBool::kUnknown) {
          if (!error->ok()) return TriBool::kUnknown;
          acc = TriBool::kUnknown;
        }
      }
      return acc;
    }
    case Op::kNot: {
      const TriBool t = EvalNode(i + 1, row, error);
      if (t == TriBool::kUnknown) return TriBool::kUnknown;
      return t == TriBool::kTrue ? TriBool::kFalse : TriBool::kTrue;
    }
    case Op::kBetween: {
      const Value* v = Read(i + 1, row, error);
      if (v == nullptr) return TriBool::kUnknown;
      const Value* lo = Read(i + 2, row, error);
      if (lo == nullptr) return TriBool::kUnknown;
      const Value* hi = Read(i + 3, row, error);
      if (hi == nullptr) return TriBool::kUnknown;
      const TriBool ge = CompareFast(CompareOp::kGe, *v, *lo, error);
      if (!error->ok()) return TriBool::kUnknown;
      const TriBool le = CompareFast(CompareOp::kLe, *v, *hi, error);
      if (!error->ok()) return TriBool::kUnknown;
      TriBool both = TriBool::kTrue;
      if (ge == TriBool::kFalse || le == TriBool::kFalse) {
        both = TriBool::kFalse;
      } else if (ge == TriBool::kUnknown || le == TriBool::kUnknown) {
        both = TriBool::kUnknown;
      }
      if (!n.negated || both == TriBool::kUnknown) return both;
      return both == TriBool::kTrue ? TriBool::kFalse : TriBool::kTrue;
    }
    case Op::kInList: {
      const Value* v = Read(i + 1, row, error);
      if (v == nullptr) return TriBool::kUnknown;
      bool saw_unknown = false;
      for (uint32_t c = i + 2; c < n.end; ++c) {
        const Value* item = Read(c, row, error);
        if (item == nullptr) return TriBool::kUnknown;
        const TriBool eq = CompareFast(CompareOp::kEq, *v, *item, error);
        if (eq == TriBool::kTrue) return Tri(!n.negated);
        if (eq == TriBool::kUnknown) {
          if (!error->ok()) return TriBool::kUnknown;
          saw_unknown = true;
        }
      }
      if (saw_unknown) return TriBool::kUnknown;
      return Tri(n.negated);
    }
    case Op::kIsNull: {
      const Value* v = Read(i + 1, row, error);
      if (v == nullptr) return TriBool::kUnknown;
      return Tri(v->is_null() != n.negated);
    }
    case Op::kLike: {
      const Value* v = Read(i + 1, row, error);
      if (v == nullptr) return TriBool::kUnknown;
      const Value* pattern = Read(i + 2, row, error);
      if (pattern == nullptr) return TriBool::kUnknown;
      if (v->is_null() || pattern->is_null()) return TriBool::kUnknown;
      if (v->type() != DataType::kString ||
          pattern->type() != DataType::kString) {
        *error = Status::BindError("LIKE requires string operands: " +
                                   n.expr->ToString());
        return TriBool::kUnknown;
      }
      return Tri(LikeMatches(v->AsString(), pattern->AsString()) !=
                 n.negated);
    }
    case Op::kTruth: {
      const Value* v = Read(i + 1, row, error);
      if (v == nullptr || v->is_null()) return TriBool::kUnknown;
      return Tri(v->AsDouble() != 0.0);
    }
    case Op::kSlot:
    case Op::kLiteral:
    case Op::kScalar:
      break;
  }
  assert(false && "operand node evaluated as a predicate");
  return TriBool::kUnknown;
}

}  // namespace erq
