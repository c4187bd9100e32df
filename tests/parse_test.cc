#include "core/parse.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <climits>
#include <limits>

namespace decaylib::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ParseTest, DoubleAcceptsSubnormal) {
  double value = 0.0;
  ASSERT_TRUE(ParseDouble("1e-310", 0.0, 1.0, &value));
  EXPECT_GT(value, 0.0);
  EXPECT_LT(value, DBL_MIN);
  EXPECT_EQ(value, 1e-310);
  ASSERT_TRUE(ParseDouble("-1e-310", -1.0, 0.0, &value));
  EXPECT_EQ(value, -1e-310);
  ASSERT_TRUE(ParseDouble("0", 0.0, 1.0, &value));
  EXPECT_EQ(value, 0.0);
}

TEST(ParseTest, DoubleRefusesOverflowAndUnderflowToZero) {
  double value = 7.0;
  EXPECT_FALSE(ParseDouble("1e-400", -1.0, 1.0, &value));
  EXPECT_FALSE(ParseDouble("-1e-400", -1.0, 1.0, &value));
  EXPECT_FALSE(ParseDouble("1e400", -kInf, kInf, &value));
  EXPECT_FALSE(ParseDouble("-1e400", -kInf, kInf, &value));
  EXPECT_EQ(value, 7.0);
}

TEST(ParseTest, DoubleRefusesNanJunkAndEmpty) {
  double value = 7.0;
  EXPECT_FALSE(ParseDouble("nan", -kInf, kInf, &value));
  EXPECT_FALSE(ParseDouble("12abc", -kInf, kInf, &value));
  EXPECT_FALSE(ParseDouble("", -kInf, kInf, &value));
  EXPECT_FALSE(ParseDouble(nullptr, -kInf, kInf, &value));
  EXPECT_FALSE(ParseDouble("2", 0.0, 1.0, &value));
  EXPECT_EQ(value, 7.0);
}

TEST(ParseTest, IntAcceptsBothRangeEnds) {
  long long value = 0;
  ASSERT_TRUE(ParseInt("-5", -5, 5, &value));
  EXPECT_EQ(value, -5);
  ASSERT_TRUE(ParseInt("5", -5, 5, &value));
  EXPECT_EQ(value, 5);
  EXPECT_FALSE(ParseInt("-6", -5, 5, &value));
  EXPECT_FALSE(ParseInt("6", -5, 5, &value));

  ASSERT_TRUE(ParseInt("-9223372036854775808", LLONG_MIN, LLONG_MAX, &value));
  EXPECT_EQ(value, LLONG_MIN);
  ASSERT_TRUE(ParseInt("9223372036854775807", LLONG_MIN, LLONG_MAX, &value));
  EXPECT_EQ(value, LLONG_MAX);
  value = 7;
  EXPECT_FALSE(ParseInt("-9223372036854775809", LLONG_MIN, LLONG_MAX, &value));
  EXPECT_FALSE(ParseInt("9223372036854775808", LLONG_MIN, LLONG_MAX, &value));
  EXPECT_FALSE(ParseInt("12abc", LLONG_MIN, LLONG_MAX, &value));
  EXPECT_FALSE(ParseInt("", LLONG_MIN, LLONG_MAX, &value));
  EXPECT_EQ(value, 7);
}

}  // namespace
}  // namespace decaylib::core
