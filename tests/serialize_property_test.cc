// Randomized round-trip property for the C_aqp serializer: any
// serializable atomic query part must parse back structurally equal, and
// a serialized cache must restore with identical coverage behavior.

#include <random>

#include "common/string_util.h"
#include "core/serialize.h"
#include "gtest/gtest.h"

namespace erq {
namespace {

Value RandomValue(std::mt19937_64& rng) {
  switch (rng() % 4) {
    case 0:
      return Value::Int(static_cast<int64_t>(rng() % 2000) - 1000);
    case 1:
      return Value::Double(static_cast<double>(rng() % 10000) / 7.0 - 500.0);
    case 2: {
      std::string s;
      size_t len = rng() % 12;
      const char alphabet[] =
          "abcXYZ019 ;|#\n\t'%_";  // includes every delimiter we escape
      for (size_t i = 0; i < len; ++i) {
        s.push_back(alphabet[rng() % (sizeof(alphabet) - 1)]);
      }
      return Value::String(std::move(s));
    }
    default:
      return Value::Date(static_cast<int32_t>(rng() % 20000));
  }
}

PrimitiveTerm RandomSerializableTerm(std::mt19937_64& rng) {
  std::string rel = StrCat({"rel", std::to_string(rng() % 3)});
  if (rng() % 4 == 0) rel += "#2";
  ColumnId col = ColumnId::Make(rel, StrCat({"c", std::to_string(rng() % 4)}));
  switch (rng() % 3) {
    case 0: {
      // Interval with random open/closed/absent endpoints of one type.
      Value a = RandomValue(rng);
      Value b = a;  // same type keeps the interval well-formed
      ValueInterval iv;
      if (rng() % 3 != 0) {
        iv.lo = a;
        iv.lo_inclusive = rng() % 2 == 0;
      }
      if (rng() % 3 != 0) {
        iv.hi = b;
        iv.hi_inclusive = rng() % 2 == 0;
      }
      return PrimitiveTerm::MakeInterval(col, std::move(iv));
    }
    case 1:
      return PrimitiveTerm::MakeNotEqual(col, RandomValue(rng));
    default: {
      ColumnId rhs = ColumnId::Make(StrCat({"rel", std::to_string(rng() % 3)}),
                                    StrCat({"c", std::to_string(rng() % 4)}));
      return PrimitiveTerm::MakeColCol(
          col, static_cast<CompareOp>(rng() % 6), rhs);
    }
  }
}

AtomicQueryPart RandomPart(std::mt19937_64& rng) {
  std::vector<PrimitiveTerm> terms;
  std::vector<std::string> relations;
  size_t n = 1 + rng() % 4;
  for (size_t i = 0; i < n; ++i) {
    PrimitiveTerm t = RandomSerializableTerm(rng);
    t.CollectRelations(&relations);
    terms.push_back(std::move(t));
  }
  if (relations.empty()) relations.push_back("rel0");
  return AtomicQueryPart(RelationSet(std::move(relations)),
                         Conjunction::Make(std::move(terms)));
}

class SerializePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SerializePropertyTest, PartRoundTripsStructurally) {
  std::mt19937_64 rng(GetParam());
  for (int iter = 0; iter < 500; ++iter) {
    AtomicQueryPart part = RandomPart(rng);
    auto line = SerializePart(part);
    ASSERT_TRUE(line.ok()) << part.ToString();
    auto parsed = ParsePart(*line);
    ASSERT_TRUE(parsed.ok()) << *line;
    ASSERT_TRUE(part.Equals(*parsed))
        << "original: " << part.ToString()
        << "\nline:     " << *line
        << "\nparsed:   " << parsed->ToString();
  }
}

TEST_P(SerializePropertyTest, CacheRestoreHasIdenticalCoverage) {
  std::mt19937_64 rng(GetParam() * 131);
  CaqpCache original(10000);
  for (int i = 0; i < 150; ++i) original.Insert(RandomPart(rng));
  std::string blob = SerializeCache(original);
  CaqpCache restored(10000);
  ASSERT_TRUE(DeserializeInto(blob, &restored).ok());
  // Coverage must agree on random probes. (Insert-order differences can
  // not change the answer: coverage is an existential over stored parts,
  // and redundancy removal only drops covered parts.)
  for (int probe = 0; probe < 300; ++probe) {
    AtomicQueryPart q = RandomPart(rng);
    ASSERT_EQ(original.CoveredBy(q), restored.CoveredBy(q)) << q.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializePropertyTest,
                         ::testing::Values(17, 29, 41));

}  // namespace
}  // namespace erq
