#include "types/value.h"

#include <cstdint>
#include <limits>

#include "gtest/gtest.h"
#include "types/date.h"

namespace erq {
namespace {

TEST(ValueTest, NullByDefault) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), DataType::kNull);
  EXPECT_EQ(v.ToString(), "NULL");
}

TEST(ValueTest, IntRoundTrip) {
  Value v = Value::Int(-42);
  EXPECT_EQ(v.type(), DataType::kInt64);
  EXPECT_EQ(v.AsInt(), -42);
  EXPECT_EQ(v.ToString(), "-42");
}

TEST(ValueTest, StringQuotingInToString) {
  EXPECT_EQ(Value::String("abc").ToString(), "'abc'");
}

TEST(ValueTest, SameTypeComparisons) {
  EXPECT_LT(Value::Int(1), Value::Int(2));
  EXPECT_EQ(Value::Int(3), Value::Int(3));
  EXPECT_GT(Value::String("b"), Value::String("a"));
  EXPECT_LT(Value::Double(1.5), Value::Double(2.5));
}

TEST(ValueTest, CrossNumericComparison) {
  EXPECT_EQ(Value::Int(2), Value::Double(2.0));
  EXPECT_LT(Value::Int(2), Value::Double(2.5));
  EXPECT_GT(Value::Double(3.1), Value::Int(3));
  EXPECT_TRUE(Value::Int(1).ComparableWith(Value::Double(1.0)));
  EXPECT_FALSE(Value::Int(1).ComparableWith(Value::String("1")));
}

TEST(ValueTest, NullSortsFirst) {
  EXPECT_LT(Value::Null(), Value::Int(-1000000));
  EXPECT_LT(Value::Null(), Value::String(""));
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(7).Hash(), Value::Int(7).Hash());
  EXPECT_EQ(Value::Int(7).Hash(), Value::Double(7.0).Hash())
      << "numeric cross-type equality must imply equal hashes";
  EXPECT_EQ(Value::String("x").Hash(), Value::String("x").Hash());
}

TEST(ValueTest, DateValue) {
  auto days = DateFromString("1995-06-17");
  ASSERT_TRUE(days.ok());
  Value v = Value::Date(days.value());
  EXPECT_EQ(v.type(), DataType::kDate);
  EXPECT_EQ(v.ToString(), "DATE '1995-06-17'");
  auto later = DateFromString("1995-06-18");
  ASSERT_TRUE(later.ok());
  EXPECT_LT(v, Value::Date(later.value()));
}

TEST(DateTest, EpochIsZero) {
  auto d = DateFromYmd(1970, 1, 1);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value(), 0);
  EXPECT_EQ(DateToString(0), "1970-01-01");
}

TEST(DateTest, RoundTripAcrossRange) {
  for (const char* s : {"1992-01-01", "1998-08-02", "2000-02-29",
                        "1999-12-31", "1970-03-01"}) {
    auto days = DateFromString(s);
    ASSERT_TRUE(days.ok()) << s;
    EXPECT_EQ(DateToString(days.value()), s);
  }
}

TEST(DateTest, FormatsExtremeDayCounts) {
  // Every int32_t day count formats in full, far outside the year range
  // DateFromYmd accepts.
  EXPECT_EQ(DateToString(std::numeric_limits<int32_t>::max()),
            "5881580-07-11");
  EXPECT_EQ(DateToString(std::numeric_limits<int32_t>::min()),
            "-5877641-06-23");
  EXPECT_EQ(DateToString(-1), "1969-12-31");
}

TEST(DateTest, RejectsInvalid) {
  EXPECT_FALSE(DateFromString("not-a-date").ok());
  EXPECT_FALSE(DateFromYmd(1999, 2, 29).ok());  // not a leap year
  EXPECT_FALSE(DateFromYmd(2000, 13, 1).ok());
  EXPECT_FALSE(DateFromYmd(2000, 0, 1).ok());
  EXPECT_TRUE(DateFromYmd(2000, 2, 29).ok());
}

TEST(DateTest, LeapYears) {
  EXPECT_TRUE(IsLeapYear(2000));
  EXPECT_TRUE(IsLeapYear(1996));
  EXPECT_FALSE(IsLeapYear(1900));
  EXPECT_FALSE(IsLeapYear(1999));
}

TEST(DateTest, Ordering) {
  auto a = DateFromString("1995-01-31");
  auto b = DateFromString("1995-02-01");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(b.value() - a.value(), 1);
}

TEST(RowHashTest, EqualRowsHashEqual) {
  Row r1 = {Value::Int(1), Value::String("x")};
  Row r2 = {Value::Int(1), Value::String("x")};
  EXPECT_EQ(RowHash{}(r1), RowHash{}(r2));
}

struct ValueCompareCase {
  Value lhs, rhs;
  int expected_sign;
};

class ValueCompareTest : public ::testing::TestWithParam<ValueCompareCase> {};

TEST_P(ValueCompareTest, CompareSign) {
  const auto& c = GetParam();
  int got = c.lhs.Compare(c.rhs);
  int sign = got < 0 ? -1 : (got > 0 ? 1 : 0);
  EXPECT_EQ(sign, c.expected_sign);
  // Antisymmetry.
  int rev = c.rhs.Compare(c.lhs);
  int rev_sign = rev < 0 ? -1 : (rev > 0 ? 1 : 0);
  EXPECT_EQ(rev_sign, -c.expected_sign);
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, ValueCompareTest,
    ::testing::Values(
        ValueCompareCase{Value::Int(1), Value::Int(2), -1},
        ValueCompareCase{Value::Int(5), Value::Int(5), 0},
        ValueCompareCase{Value::Double(1.5), Value::Int(1), 1},
        ValueCompareCase{Value::Null(), Value::Int(0), -1},
        ValueCompareCase{Value::String("a"), Value::String("ab"), -1},
        ValueCompareCase{Value::Date(100), Value::Date(99), 1}));

}  // namespace
}  // namespace erq
