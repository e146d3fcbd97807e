#include "sql/ast.h"

#include <cctype>
#include <cstdlib>

#include "common/string_util.h"

namespace erq {

std::string SubqueryMarkerName(size_t index) {
  return "$subq" + std::to_string(index);
}

int ParseSubqueryMarker(const std::string& column_name) {
  if (!StartsWith(column_name, "$subq")) return -1;
  for (size_t i = 5; i < column_name.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(column_name[i]))) return -1;
  }
  if (column_name.size() == 5) return -1;
  return std::atoi(column_name.c_str() + 5);
}

const char* AggFuncToString(AggFunc f) {
  switch (f) {
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
    case AggFunc::kAvg:
      return "AVG";
  }
  return "?";
}

std::string SelectItem::ToString() const {
  std::string out;
  switch (kind) {
    case Kind::kStar:
      out.push_back('*');
      break;
    case Kind::kExpr:
      out = expr->ToString();
      break;
    case Kind::kAggregate:
      out = StrCat({AggFuncToString(agg), "(",
                    count_star ? "*" : expr->ToString(), ")"});
      break;
  }
  if (!alias.empty()) out += " AS " + alias;
  return out;
}

bool SelectStatement::HasAggregates() const {
  for (const SelectItem& item : items) {
    if (item.kind == SelectItem::Kind::kAggregate) return true;
  }
  return false;
}

std::string SelectStatement::ToString() const {
  std::string out = "SELECT ";
  if (distinct) out += "DISTINCT ";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i].ToString();
  }
  out += " FROM ";
  for (size_t i = 0; i < from.size(); ++i) {
    if (i > 0) out += ", ";
    out += from[i].ToString();
  }
  for (const OuterJoin& j : outer_joins) {
    out += " LEFT OUTER JOIN " + j.right.ToString() + " ON " +
           j.condition->ToString();
  }
  if (where) out += " WHERE " + where->ToString();
  for (size_t i = 0; i < in_subqueries.size(); ++i) {
    out += " /* " + SubqueryMarkerName(i) + " := " +
           in_subqueries[i].operand->ToString() + " IN (" +
           in_subqueries[i].query->ToString() + ") */";
  }
  if (!group_by.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += group_by[i]->ToString();
    }
  }
  if (having) out += " HAVING " + having->ToString();
  if (!order_by.empty()) {
    out += " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += order_by[i].expr->ToString();
      if (!order_by[i].ascending) out += " DESC";
    }
  }
  return out;
}

std::string Statement::ToString() const {
  switch (op) {
    case Op::kSelect:
      return select->ToString();
    case Op::kUnion:
      return StrCat({"(", left->ToString(),
                     all ? ") UNION ALL (" : ") UNION (", right->ToString(),
                     ")"});
    case Op::kExcept:
      return StrCat({"(", left->ToString(),
                     all ? ") EXCEPT ALL (" : ") EXCEPT (", right->ToString(),
                     ")"});
  }
  return "?";
}

}  // namespace erq
