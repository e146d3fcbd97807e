// Unit tests for the QueryRequest/QueryResponse API (core/query_api.h):
// request validation, the Execute/ExecuteBatch entry points, row_limit
// truncation, the erq.response.v1 JSON rendering (parsed back with our
// own JSON reader), and the parts_checked-weighted batch check_seconds
// attribution.

#include "core/query_api.h"

#include <string>
#include <type_traits>
#include <vector>

#include "common/json.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace erq {
namespace {

using ::erq::testing::FixtureDb;

EmptyResultConfig CheckEverything() {
  EmptyResultConfig config;
  config.c_cost = 0.0;  // every query is "high cost": always check C_aqp
  return config;
}

TEST(QueryRequestTest, ValidateRejectsZeroAndMultipleForms) {
  QueryRequest none;
  EXPECT_EQ(none.Validate().code(), StatusCode::kInvalidArgument);

  QueryRequest both = QueryRequest::Sql("select * from A");
  both.batch.push_back("select * from B");
  EXPECT_EQ(both.Validate().code(), StatusCode::kInvalidArgument);

  EXPECT_TRUE(QueryRequest::Sql("select * from A").Validate().ok());
  EXPECT_TRUE(QueryRequest::Batch({"select * from A"}).Validate().ok());
}

TEST(QueryApiTest, ExecuteRejectsBatchForm) {
  FixtureDb db;
  EmptyResultManager manager(&db.catalog(), &db.stats(), CheckEverything());
  auto result = manager.Execute(QueryRequest::Batch({"select * from A"}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryApiTest, ExecuteBatchRejectsSingleForm) {
  FixtureDb db;
  EmptyResultManager manager(&db.catalog(), &db.stats(), CheckEverything());
  auto results = manager.ExecuteBatch(QueryRequest::Sql("select * from A"));
  ASSERT_EQ(results.size(), 1u);
  ASSERT_FALSE(results[0].ok());
  EXPECT_EQ(results[0].status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryApiTest, EmptySqlStillReportsParseError) {
  // Execute does not run Validate(): an empty SQL string reaches the
  // parser and surfaces its error, not a request-validation error.
  FixtureDb db;
  EmptyResultManager manager(&db.catalog(), &db.stats(), CheckEverything());
  auto result = manager.Execute(QueryRequest::Sql(""));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(QueryApiTest, BatchItemsCarryStructuredStatusCodes) {
  FixtureDb db;
  EmptyResultManager manager(&db.catalog(), &db.stats(), CheckEverything());
  std::vector<StatusOr<QueryOutcome>> results =
      manager.ExecuteBatch(QueryRequest::Batch({
          "select * from A where a > 100",  // empty, executes fine
          "this is not sql",                // parse error
          "select * from no_such_table",    // unknown relation
      }));
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kParseError);
  ASSERT_FALSE(results[2].ok());
  EXPECT_EQ(results[2].status().code(), StatusCode::kNotFound);
}

TEST(QueryApiTest, EmptyBatchYieldsEmptyVector) {
  FixtureDb db;
  EmptyResultManager manager(&db.catalog(), &db.stats(), CheckEverything());
  EXPECT_TRUE(manager.ExecuteBatch(QueryRequest::Batch({})).empty());
}

TEST(QueryApiTest, BatchCheckSecondsWeightedByPartsChecked) {
  // The satellite fix: a batch's single C_aqp probe time is attributed
  // per query in proportion to parts_checked, not split evenly. Seed the
  // cache so both batch members are *detected* (a detected query's
  // check_seconds is exactly its share of the batched probe; executed
  // queries additionally accumulate per-query PrunePlan time). The
  // one-part query and the two-part (OR -> 2 DNF terms) query then share
  // one measured probe time, so the two-part share must be twice the
  // one-part share, whatever the wall clock did.
  FixtureDb db;
  EmptyResultManager manager(&db.catalog(), &db.stats(), CheckEverything());
  const std::string one_part_sql = "select * from A where a > 100";
  const std::string two_part_sql =
      "select * from A where a > 200 or b > 2000";
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome seed1,
                           manager.Execute(QueryRequest::Sql(one_part_sql)));
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome seed2,
                           manager.Execute(QueryRequest::Sql(two_part_sql)));
  ASSERT_GT(seed1.aqps_recorded, 0u);
  ASSERT_GT(seed2.aqps_recorded, 0u);

  std::vector<StatusOr<QueryOutcome>> results =
      manager.ExecuteBatch(QueryRequest::Batch({one_part_sql, two_part_sql}));
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].ok());
  ASSERT_TRUE(results[1].ok());
  ASSERT_TRUE(results[0]->detected_empty);
  ASSERT_TRUE(results[1]->detected_empty);
  const double one_part = results[0]->timings.check_seconds;
  const double two_part = results[1]->timings.check_seconds;
  EXPECT_GT(one_part, 0.0);
  EXPECT_NEAR(two_part, 2.0 * one_part, 1e-12)
      << "check_seconds must be attributed by parts_checked (1 vs 2)";
}

TEST(QueryResponseTest, RowLimitTruncates) {
  FixtureDb db;
  EmptyResultManager manager(&db.catalog(), &db.stats(), CheckEverything());
  QueryRequest request = QueryRequest::Sql("select * from A");
  request.row_limit = 3;
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome outcome, manager.Execute(request));
  ASSERT_EQ(outcome.result_rows, 10u);  // fixture A has 10 rows

  QueryResponse response = QueryResponse::FromOutcome(outcome, request);
  EXPECT_EQ(response.rows.size(), 3u);
  EXPECT_TRUE(response.rows_truncated);
  EXPECT_EQ(response.result_rows, 10u);
  EXPECT_EQ(response.columns, (std::vector<std::string>{"a", "b", "c"}));

  request.row_limit = 0;  // metadata only
  response = QueryResponse::FromOutcome(outcome, request);
  EXPECT_TRUE(response.rows.empty());
  EXPECT_TRUE(response.rows_truncated);
}

TEST(QueryResponseTest, ToJsonRoundTripsThroughOurParser) {
  FixtureDb db;
  EmptyResultManager manager(&db.catalog(), &db.stats(), CheckEverything());
  QueryRequest request = QueryRequest::Sql("select * from A where a > 100");
  request.explain = ExplainVerbosity::kFull;
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome outcome, manager.Execute(request));

  const QueryResponse response = QueryResponse::FromOutcome(outcome, request);
  ERQ_ASSERT_OK_AND_ASSIGN(JsonValue doc, JsonValue::Parse(response.ToJson()));
  EXPECT_EQ(doc.Find("schema")->AsString(), "erq.response.v1");
  EXPECT_EQ(doc.Find("status")->Find("code")->AsString(), "OK");
  const JsonValue* out = doc.Find("outcome");
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(out->Find("executed")->AsBool());
  EXPECT_TRUE(out->Find("result_empty")->AsBool());
  EXPECT_EQ(out->Find("result_rows")->AsInt64(), 0);
  ASSERT_NE(doc.Find("timings"), nullptr);
  EXPECT_NE(doc.Find("timings")->Find("total_seconds"), nullptr);
  ASSERT_NE(doc.Find("plan"), nullptr);       // kFull carries the plan
  ASSERT_NE(doc.Find("empty_causes"), nullptr);
  EXPECT_GE(doc.Find("empty_causes")->Items().size(), 1u);
}

TEST(QueryResponseTest, EveryCounterReachesTheWire) {
  // Each numeric QueryCounters field gets a distinct value through the
  // visitor; the four bools are made true one at a time, so a swapped or
  // dropped field shows up in some round.
  for (size_t hot = 0; hot < 4; ++hot) {
    SCOPED_TRACE("true bool #" + std::to_string(hot));
    QueryOutcome outcome;
    size_t fields = 0;
    size_t bools = 0;
    outcome.ForEachField([&](const char* /*name*/, auto& field) {
      ++fields;
      using T = std::decay_t<decltype(field)>;
      if constexpr (std::is_same_v<T, bool>) {
        field = bools++ == hot;
      } else {
        // 100, 200, ...; the double field keeps a fractional .5.
        field = static_cast<T>(100.0 * static_cast<double>(fields) + 0.5);
      }
    });
    ASSERT_EQ(fields, 14u);
    ASSERT_EQ(bools, 4u);

    const QueryResponse response =
        QueryResponse::FromOutcome(outcome, QueryRequest::Sql("unused"));
    ERQ_ASSERT_OK_AND_ASSIGN(JsonValue doc,
                             JsonValue::Parse(response.ToJson()));
    const JsonValue* wire = doc.Find("outcome");
    ASSERT_NE(wire, nullptr);
    // The 14 counters plus the response-only returned_rows and
    // rows_truncated, each under its own key.
    EXPECT_EQ(wire->Members().size(), 16u);
    const QueryOutcome& expected = outcome;
    expected.ForEachField([&](const char* name, const auto& field) {
      SCOPED_TRACE(name);
      const JsonValue* value = wire->Find(name);
      ASSERT_NE(value, nullptr);
      if constexpr (std::is_same_v<std::decay_t<decltype(field)>, bool>) {
        ASSERT_TRUE(value->is_bool());
        EXPECT_EQ(value->AsBool(), field);
      } else {
        ASSERT_TRUE(value->is_number());
        EXPECT_EQ(value->AsDouble(), static_cast<double>(field));
      }
    });
  }
}

TEST(QueryResponseTest, ToJsonRendersEveryValueKindToFixedBytes) {
  // One row of every value kind, plus names and texts that need escaping,
  // pinned byte for byte: erq.response.v1 clients see exactly this.
  QueryResponse response;
  response.columns = {"n", "neg", "whole", "frac", "s\"q", "d"};
  response.rows = {
      {Value::Null(), Value::Int(-42), Value::Double(3.0),
       Value::Double(-0.125), Value::String("a\"b\\c\x01\n\td"),
       Value::Date(10957)},
      {Value::Int(0), Value::Int(-9223372036854775807 - 1),
       Value::Double(1e20), Value::Double(0.1), Value::String(""),
       Value::Date(-1)},
  };
  response.rows_truncated = true;
  response.plan_text = "Filter [(a < 1)]\n  TableScan A";
  response.empty_causes = {"A: (a > 100)", "tab\there"};
  EXPECT_EQ(
      response.ToJson(),
      "{\"schema\":\"erq.response.v1\",\"status\":{\"code\":\"OK\","
      "\"message\":\"\"},\"outcome\":{\"returned_rows\":2,"
      "\"rows_truncated\":true,\"detected_empty\":false,\"executed\":false,"
      "\"result_empty\":false,\"high_cost\":false,\"result_rows\":0,"
      "\"aqps_recorded\":0,\"branches_pruned\":0,\"partitions_scanned\":0,"
      "\"partitions_pruned\":0,\"partition_aqps_recorded\":0,"
      "\"reused_subtrees\":0,\"reuse_rows_served\":0,"
      "\"intermediates_harvested\":0,\"estimated_cost\":0},"
      "\"timings\":{\"parse_seconds\":0,\"plan_seconds\":0,"
      "\"optimize_seconds\":0,\"gate_seconds\":0,\"check_seconds\":0,"
      "\"execute_seconds\":0,\"record_seconds\":0,\"total_seconds\":0},"
      "\"columns\":[\"n\",\"neg\",\"whole\",\"frac\",\"s\\\"q\",\"d\"],"
      "\"rows\":[[null,-42,3,-0.125,\"a\\\"b\\\\c\\u0001\\n\\td\","
      "\"2000-01-01\"],[0,-9223372036854775808,1e+20,0.10000000000000001,\"\","
      "\"1969-12-31\"]],\"plan\":\"Filter [(a < 1)]\\n  TableScan A\","
      "\"empty_causes\":[\"A: (a > 100)\",\"tab\\there\"]}");
}

TEST(QueryResponseTest, ErrorJsonCarriesSchemaAndStatusOnly) {
  const QueryResponse response =
      QueryResponse::FromStatus(Status::NotFound("nope"));
  ERQ_ASSERT_OK_AND_ASSIGN(JsonValue doc, JsonValue::Parse(response.ToJson()));
  EXPECT_EQ(doc.Find("schema")->AsString(), "erq.response.v1");
  EXPECT_EQ(doc.Find("status")->Find("code")->AsString(), "NotFound");
  EXPECT_EQ(doc.Find("outcome"), nullptr);
  EXPECT_EQ(doc.Find("rows"), nullptr);
}

TEST(QueryResponseTest, ToTextMatchesLegacyOutcomeToString) {
  FixtureDb db;
  EmptyResultManager manager(&db.catalog(), &db.stats(), CheckEverything());
  ERQ_ASSERT_OK_AND_ASSIGN(
      QueryOutcome outcome,
      manager.Execute(QueryRequest::Sql("select * from A where a < 15")));
  // QueryOutcome::ToString() delegates to the shared renderer; both paths
  // must agree byte for byte (full verbosity, unlimited rows).
  QueryRequest full;
  full.row_limit = 0;
  full.explain = ExplainVerbosity::kFull;
  EXPECT_EQ(outcome.ToString(),
            QueryResponse::FromOutcome(outcome, full).ToText());
  EXPECT_NE(outcome.ToString().find("executed: 5 rows"), std::string::npos);
}

TEST(QueryResponseTest, TextRendersRows) {
  FixtureDb db;
  EmptyResultManager manager(&db.catalog(), &db.stats(), CheckEverything());
  QueryRequest request = QueryRequest::Sql("select a from A where a < 12");
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome outcome, manager.Execute(request));
  const std::string text =
      QueryResponse::FromOutcome(outcome, request).ToText();
  EXPECT_NE(text.find("executed: 2 rows"), std::string::npos);
  EXPECT_NE(text.find("\na\n10\n11"), std::string::npos) << text;
  EXPECT_NE(text.find("timings:"), std::string::npos);
}

}  // namespace
}  // namespace erq
