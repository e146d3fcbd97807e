#include "core/query_api.h"

#include <charconv>
#include <cstdio>

#include "common/json.h"
#include "types/date.h"

namespace erq {

namespace {

/// Appends one QueryCounters field (or a response-only scalar) as JSON.
void AppendJsonValue(bool v, std::string* out) {
  out->append(v ? "true" : "false");
}
template <typename Int>
void AppendJsonInt(Int v, std::string* out) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, r.ptr);
}
void AppendJsonValue(size_t v, std::string* out) { AppendJsonInt(v, out); }
void AppendJsonValue(double v, std::string* out) { AppendJsonNumber(v, out); }

/// Appends one row value as JSON: NULL -> null, numbers -> numbers,
/// strings -> quoted raw text (no SQL quotes), dates -> "YYYY-MM-DD".
void AppendJsonValue(const Value& v, std::string* out) {
  switch (v.type()) {
    case DataType::kNull:
      out->append("null");
      return;
    case DataType::kInt64:
      AppendJsonInt(v.AsInt(), out);
      return;
    case DataType::kDouble:
      AppendJsonNumber(v.AsDouble(), out);
      return;
    case DataType::kString:
      AppendJsonQuote(v.AsString(), out);
      return;
    case DataType::kDate:
      AppendJsonQuote(DateToString(v.AsDate()), out);
      return;
  }
  out->append("null");
}

}  // namespace

QueryRequest QueryRequest::Sql(std::string sql) {
  QueryRequest out;
  out.sql = std::move(sql);
  return out;
}

QueryRequest QueryRequest::Batch(std::vector<std::string> sqls) {
  QueryRequest out;
  out.batch = std::move(sqls);
  return out;
}

Status QueryRequest::Validate() const {
  if (sql.empty() && batch.empty()) {
    return Status::InvalidArgument(
        "QueryRequest needs exactly one input form: sql or batch (both are "
        "empty)");
  }
  if (!sql.empty() && !batch.empty()) {
    return Status::InvalidArgument(
        "QueryRequest must set exactly one of sql / batch, not both");
  }
  switch (explain) {
    case ExplainVerbosity::kNone:
    case ExplainVerbosity::kSummary:
    case ExplainVerbosity::kFull:
      break;
    default:
      return Status::InvalidArgument(
          "QueryRequest.explain is not a known ExplainVerbosity");
  }
  return Status::OK();
}

QueryResponse QueryResponse::FromOutcome(const QueryOutcome& outcome,
                                         const QueryRequest& request) {
  QueryResponse out;
  static_cast<QueryCounters&>(out) = outcome;
  out.timings = outcome.timings;
  for (const BoundColumn& c : outcome.result.layout.columns()) {
    out.columns.push_back(c.column);
  }
  const size_t keep =
      outcome.result.rows.size() < request.row_limit ? outcome.result.rows.size()
                                                     : request.row_limit;
  out.rows.assign(outcome.result.rows.begin(),
                  outcome.result.rows.begin() +
                      static_cast<std::ptrdiff_t>(keep));
  out.rows_truncated = keep < outcome.result.rows.size();
  if (request.explain == ExplainVerbosity::kFull && outcome.plan != nullptr) {
    out.plan_text = outcome.plan->ToString();
  }
  if (request.explain != ExplainVerbosity::kNone &&
      outcome.explanation.has_value()) {
    out.empty_causes = outcome.explanation->minimal_causes;
  }
  return out;
}

QueryResponse QueryResponse::FromStatus(const Status& status) {
  QueryResponse out;
  out.status = status;
  return out;
}

QueryResponse QueryResponse::FromResult(const StatusOr<QueryOutcome>& result,
                                        const QueryRequest& request) {
  if (!result.ok()) return FromStatus(result.status());
  return FromOutcome(*result, request);
}

std::string QueryResponse::ToJson() const {
  std::string out = "{\"schema\":";
  AppendJsonQuote(kSchema, &out);
  out += ",\"status\":{\"code\":";
  AppendJsonQuote(StatusCodeToString(status.code()), &out);
  out += ",\"message\":";
  AppendJsonQuote(status.message(), &out);
  out += "}";
  if (!status.ok()) {
    out += "}";
    return out;
  }
  out += ",\"outcome\":{\"returned_rows\":";
  AppendJsonValue(rows.size(), &out);
  out += ",\"rows_truncated\":";
  AppendJsonValue(rows_truncated, &out);
  ForEachField([&out](const char* name, auto value) {
    out += ",\"";
    out += name;
    out += "\":";
    AppendJsonValue(value, &out);
  });
  out += "},\"timings\":{";
  timings.ForEachStage([&out](const char* stage, double seconds) {
    if (out.back() != '{') out += ',';
    out += '"';
    out += stage;
    out += "_seconds\":";
    AppendJsonNumber(seconds, &out);
  });
  out += "},\"columns\":[";
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += ',';
    AppendJsonQuote(columns[i], &out);
  }
  out += "],\"rows\":[";
  for (size_t r = 0; r < rows.size(); ++r) {
    if (r > 0) out += ',';
    out += '[';
    for (size_t c = 0; c < rows[r].size(); ++c) {
      if (c > 0) out += ',';
      AppendJsonValue(rows[r][c], &out);
    }
    out += ']';
  }
  out += ']';
  if (!plan_text.empty()) {
    out += ",\"plan\":";
    AppendJsonQuote(plan_text, &out);
  }
  if (!empty_causes.empty()) {
    out += ",\"empty_causes\":[";
    for (size_t i = 0; i < empty_causes.size(); ++i) {
      if (i > 0) out += ',';
      AppendJsonQuote(empty_causes[i], &out);
    }
    out += ']';
  }
  out += '}';
  return out;
}

std::string QueryResponse::ToText() const {
  if (!status.ok()) {
    return "error: " + status.ToString();
  }
  char buf[160];
  std::string out;
  if (detected_empty) {
    std::snprintf(buf, sizeof(buf),
                  "detected empty via C_aqp (estimated cost %.1f, execution "
                  "skipped)",
                  estimated_cost);
  } else if (executed) {
    std::snprintf(buf, sizeof(buf),
                  "executed: %zu row%s (estimated cost %.1f%s)", result_rows,
                  result_rows == 1 ? "" : "s", estimated_cost,
                  high_cost ? ", high-cost" : "");
  } else {
    std::snprintf(buf, sizeof(buf), "not executed (estimated cost %.1f)",
                  estimated_cost);
  }
  out += buf;
  if (branches_pruned > 0) {
    std::snprintf(buf, sizeof(buf), "; %zu set-op branch(es) pruned",
                  branches_pruned);
    out += buf;
  }
  if (aqps_recorded > 0) {
    std::snprintf(buf, sizeof(buf), "; %zu atomic query part(s) recorded",
                  aqps_recorded);
    out += buf;
  }
  if (partitions_pruned > 0) {
    std::snprintf(buf, sizeof(buf),
                  "; partitions scanned=%zu pruned=%zu", partitions_scanned,
                  partitions_pruned);
    out += buf;
  }
  if (partition_aqps_recorded > 0) {
    std::snprintf(buf, sizeof(buf), "; %zu partition part(s) recorded",
                  partition_aqps_recorded);
    out += buf;
  }
  if (reused_subtrees > 0) {
    std::snprintf(buf, sizeof(buf),
                  "; %zu subtree(s) reused (%zu cached row(s) served)",
                  reused_subtrees, reuse_rows_served);
    out += buf;
  }
  if (intermediates_harvested > 0) {
    std::snprintf(buf, sizeof(buf), "; %zu intermediate(s) harvested",
                  intermediates_harvested);
    out += buf;
  }
  if (!rows.empty() && !columns.empty()) {
    out += '\n';
    for (size_t c = 0; c < columns.size(); ++c) {
      if (c > 0) out += " | ";
      out += columns[c];
    }
    for (const Row& row : rows) {
      out += '\n';
      for (size_t c = 0; c < row.size(); ++c) {
        if (c > 0) out += " | ";
        out += row[c].ToString();
      }
    }
    if (rows_truncated) {
      std::snprintf(buf, sizeof(buf), "\n... (%zu rows total)", result_rows);
      out += buf;
    }
  }
  out += "\ntimings: " + timings.ToString();
  if (!plan_text.empty()) {
    out += "\n" + plan_text;
  }
  for (const std::string& cause : empty_causes) {
    out += "\nminimal cause: " + cause;
  }
  return out;
}

}  // namespace erq
