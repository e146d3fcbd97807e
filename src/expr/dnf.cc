#include "expr/dnf.h"

#include "common/string_util.h"
#include "expr/normalize.h"

namespace erq {

namespace {

// Working representation before Conjunction canonicalization.
using TermList = std::vector<PrimitiveTerm>;

StatusOr<std::vector<TermList>> Convert(const ExprPtr& expr,
                                        const DnfOptions& options) {
  switch (expr->kind()) {
    case Expr::Kind::kOr: {
      std::vector<TermList> out;
      for (const ExprPtr& c : expr->children()) {
        ERQ_ASSIGN_OR_RETURN(std::vector<TermList> sub, Convert(c, options));
        for (TermList& t : sub) out.push_back(std::move(t));
        if (out.size() > options.max_terms) {
          return Status::ResourceExhausted(
              "DNF expansion exceeds max_terms=" +
              std::to_string(options.max_terms));
        }
      }
      return out;
    }
    case Expr::Kind::kAnd: {
      std::vector<TermList> acc = {TermList{}};
      for (const ExprPtr& c : expr->children()) {
        ERQ_ASSIGN_OR_RETURN(std::vector<TermList> sub, Convert(c, options));
        std::vector<TermList> next;
        next.reserve(acc.size() * sub.size());
        if (acc.size() * sub.size() > options.max_terms) {
          return Status::ResourceExhausted(
              "DNF expansion exceeds max_terms=" +
              std::to_string(options.max_terms));
        }
        for (const TermList& a : acc) {
          for (const TermList& b : sub) {
            TermList combined = a;
            combined.insert(combined.end(), b.begin(), b.end());
            next.push_back(std::move(combined));
          }
        }
        acc = std::move(next);
      }
      return acc;
    }
    case Expr::Kind::kLiteral: {
      const Value& v = expr->value();
      if (!v.is_null() && v.AsDouble() != 0.0) {
        // TRUE: one empty conjunction.
        return std::vector<TermList>{TermList{}};
      }
      // FALSE / NULL: contributes no disjunct.
      return std::vector<TermList>{};
    }
    case Expr::Kind::kCompare:
    case Expr::Kind::kBetween:
    case Expr::Kind::kIsNull:
    case Expr::Kind::kLike: {
      ERQ_ASSIGN_OR_RETURN(PrimitiveTerm term, PrimitiveTerm::FromExpr(expr));
      return std::vector<TermList>{TermList{std::move(term)}};
    }
    case Expr::Kind::kNot:
    case Expr::Kind::kInList:
      return Status::Internal("expression is not in NNF: " + expr->ToString());
    default:
      return Status::NotSupported("cannot convert to DNF: " +
                                  expr->ToString());
  }
}

}  // namespace

StatusOr<Dnf> NnfToDnf(const ExprPtr& nnf, const DnfOptions& options) {
  ERQ_ASSIGN_OR_RETURN(std::vector<TermList> lists, Convert(nnf, options));
  Dnf out;
  out.reserve(lists.size());
  for (TermList& terms : lists) {
    out.push_back(Conjunction::Make(std::move(terms)));
  }
  return out;
}

StatusOr<Dnf> ExprToDnf(const ExprPtr& expr, const DnfOptions& options) {
  ERQ_ASSIGN_OR_RETURN(ExprPtr nnf, NormalizeToNnf(expr));
  return NnfToDnf(nnf, options);
}

std::string DnfToString(const Dnf& dnf) {
  if (dnf.empty()) return "FALSE";
  std::string out;
  for (size_t i = 0; i < dnf.size(); ++i) {
    if (i > 0) out += " OR ";
    out += StrCat({"(", dnf[i].ToString(), ")"});
  }
  return out;
}

}  // namespace erq
