// Robustness sweeps: the SQL front end must return Status errors — never
// crash, hang, or corrupt state — on arbitrary input; the serializer must
// reject arbitrary garbage likewise.

#include <random>
#include <string>

#include "core/serialize.h"
#include "gtest/gtest.h"
#include "sql/parser.h"
#include "test_util.h"

namespace erq {
namespace {

using erq::testing::FixtureDb;

class ParserFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzzTest, RandomBytesNeverCrash) {
  std::mt19937_64 rng(GetParam());
  const std::string alphabet =
      "abcdefghijklmnopqrstuvwxyz0123456789 ()*,.<>=!'\"-+/;\t\n%_#";
  for (int iter = 0; iter < 2000; ++iter) {
    size_t len = rng() % 80;
    std::string input;
    for (size_t i = 0; i < len; ++i) {
      input.push_back(alphabet[rng() % alphabet.size()]);
    }
    auto result = Parser::Parse(input);
    (void)result;  // ok or error — both fine; crashing is the failure mode
  }
}

TEST_P(ParserFuzzTest, RandomTokenSoupNeverCrashes) {
  std::mt19937_64 rng(GetParam());
  const char* tokens[] = {"select", "from",  "where", "and",   "or",
                          "not",    "(",     ")",     "*",     ",",
                          "a",      "b.c",   "42",    "3.5",   "'s'",
                          "=",      "<",     ">",     "<=",    ">=",
                          "<>",     "between", "in",  "is",    "null",
                          "union",  "except", "all",  "group", "by",
                          "order",  "distinct", "count", "join", "on",
                          "left",   "outer",  "as",   "DATE",  "'1999-01-01'"};
    for (int iter = 0; iter < 2000; ++iter) {
    size_t len = 1 + rng() % 25;
    std::string input;
    for (size_t i = 0; i < len; ++i) {
      input += tokens[rng() % (sizeof(tokens) / sizeof(tokens[0]))];
      input += ' ';
    }
    auto result = Parser::Parse(input);
    (void)result;
  }
}

// Valid queries against a real catalog: plan + optimize + execute must
// either succeed or fail with a Status, never crash.
TEST_P(ParserFuzzTest, MutatedValidQueriesNeverCrashThePipeline) {
  std::mt19937_64 rng(GetParam() * 31);
  FixtureDb db;
  const std::string base =
      "select * from A, B where A.c = B.d and A.a > 12 or B.e in (1, 2)";
  for (int iter = 0; iter < 500; ++iter) {
    std::string mutated = base;
    // Random single-character mutations.
    for (int m = 0; m < 3; ++m) {
      size_t pos = rng() % mutated.size();
      switch (rng() % 3) {
        case 0:
          mutated[pos] = "abz19(),.<>='"[rng() % 13];
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1, "abz19(),.<>='"[rng() % 13]);
          break;
      }
      if (mutated.empty()) mutated.push_back('x');
    }
    auto result = db.Run(mutated);
    (void)result;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest, ::testing::Values(1, 2, 3));

class SerializeFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(SerializeFuzzTest, GarbageLinesNeverCrash) {
  std::mt19937_64 rng(GetParam());
  const std::string alphabet = "aqp v1 |;.#:= iv ne cc ge le t.x i:5\n";
  for (int iter = 0; iter < 2000; ++iter) {
    size_t len = rng() % 120;
    std::string input;
    for (size_t i = 0; i < len; ++i) {
      input.push_back(alphabet[rng() % alphabet.size()]);
    }
    CaqpCache cache(100);
    auto result = DeserializeInto(input, &cache);
    (void)result;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeFuzzTest, ::testing::Values(7, 8));

}  // namespace
}  // namespace erq
