#include "io/csv.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/metricity.h"
#include "geom/rng.h"
#include "spaces/samplers.h"

namespace decaylib::io {
namespace {

TEST(CsvTest, RoundTripPreservesEveryEntry) {
  geom::Rng rng(1);
  const core::DecaySpace space = spaces::LogUniformSpace(9, 1e6, rng, false);
  std::stringstream buffer;
  WriteDecayCsv(space, buffer);
  const ParseResult parsed = ReadDecayCsv(buffer);
  ASSERT_TRUE(parsed.space.has_value()) << parsed.error;
  ASSERT_EQ(parsed.space->size(), 9);
  for (int i = 0; i < 9; ++i) {
    for (int j = 0; j < 9; ++j) {
      EXPECT_DOUBLE_EQ((*parsed.space)(i, j), space(i, j));
    }
  }
}

TEST(CsvTest, AcceptsCommentsAndBlankLines) {
  std::stringstream in(
      "# measured decays, campaign 3\n"
      "\n"
      "0, 2.5, 3e2\n"
      "2.5, 0, 1.25\n"
      "# trailing comment\n"
      "300, 1.25, 0\n");
  const ParseResult parsed = ReadDecayCsv(in);
  ASSERT_TRUE(parsed.space.has_value()) << parsed.error;
  EXPECT_DOUBLE_EQ((*parsed.space)(0, 2), 300.0);
  EXPECT_DOUBLE_EQ((*parsed.space)(1, 2), 1.25);
}

TEST(CsvTest, DiagonalValuesIgnored) {
  std::stringstream in("7, 1\n1, 9\n");
  const ParseResult parsed = ReadDecayCsv(in);
  ASSERT_TRUE(parsed.space.has_value()) << parsed.error;
  EXPECT_DOUBLE_EQ((*parsed.space)(0, 0), 0.0);
  EXPECT_DOUBLE_EQ((*parsed.space)(1, 1), 0.0);
}

TEST(CsvTest, RejectsNonSquare) {
  std::stringstream in("0, 1, 2\n1, 0, 1\n");
  const ParseResult parsed = ReadDecayCsv(in);
  EXPECT_FALSE(parsed.space.has_value());
  EXPECT_NE(parsed.error.find("square"), std::string::npos);
}

TEST(CsvTest, RejectsRaggedRow) {
  std::stringstream in("0, 1\n1\n");
  EXPECT_FALSE(ReadDecayCsv(in).space.has_value());
}

TEST(CsvTest, RejectsEmptyCell) {
  // A trailing empty cell ("0,1,") must fail like an inner one ("0,,1"),
  // not parse as a square matrix of the remaining cells.
  for (const char* text : {"0,,1\n1,0,1\n1,1,0\n", "0,1,\n1,0,\n"}) {
    std::stringstream in(text);
    const ParseResult parsed = ReadDecayCsv(in);
    EXPECT_FALSE(parsed.space.has_value()) << text;
    EXPECT_NE(parsed.error.find("empty cell"), std::string::npos) << text;
  }
}

TEST(CsvTest, RejectsGarbageCell) {
  std::stringstream in("0, banana\n1, 0\n");
  const ParseResult parsed = ReadDecayCsv(in);
  EXPECT_FALSE(parsed.space.has_value());
  EXPECT_NE(parsed.error.find("banana"), std::string::npos);
}

TEST(CsvTest, RejectsNegativeDecay) {
  std::stringstream in("0, -1\n1, 0\n");
  const ParseResult parsed = ReadDecayCsv(in);
  EXPECT_FALSE(parsed.space.has_value());
  EXPECT_NE(parsed.error.find("positive"), std::string::npos);
}

TEST(CsvTest, RejectsZeroOffDiagonal) {
  std::stringstream in("0, 0\n1, 0\n");
  EXPECT_FALSE(ReadDecayCsv(in).space.has_value());
}

TEST(CsvTest, RejectsEmptyInput) {
  std::stringstream in("# only a comment\n");
  const ParseResult parsed = ReadDecayCsv(in);
  EXPECT_FALSE(parsed.space.has_value());
}

TEST(CsvTest, RejectsMissingFile) {
  const ParseResult parsed = ReadDecayCsvFile("/nonexistent/path.csv");
  EXPECT_FALSE(parsed.space.has_value());
  EXPECT_NE(parsed.error.find("cannot open"), std::string::npos);
}

TEST(CsvTest, FileRoundTrip) {
  geom::Rng rng(2);
  const core::DecaySpace space = spaces::LogUniformSpace(6, 100.0, rng);
  const std::string path = ::testing::TempDir() + "/decay_roundtrip.csv";
  ASSERT_TRUE(WriteDecayCsvFile(space, path));
  const ParseResult parsed = ReadDecayCsvFile(path);
  ASSERT_TRUE(parsed.space.has_value()) << parsed.error;
  EXPECT_NEAR(core::Metricity(*parsed.space), core::Metricity(space), 1e-12);
}

}  // namespace
}  // namespace decaylib::io
