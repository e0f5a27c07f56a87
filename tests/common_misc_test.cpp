// Tests for the remaining common utilities: math helpers, tables and the
// deterministic RNG.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/math_util.h"
#include "common/rng.h"
#include "common/table.h"

namespace cimtpu {
namespace {

// --- math_util ---------------------------------------------------------------

TEST(MathUtilTest, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(1, 128), 1);
  EXPECT_EQ(ceil_div<std::int64_t>(7168, 128), 56);
  EXPECT_EQ(ceil_div<std::int64_t>(1281, 256), 6);
}

TEST(MathUtilTest, RoundUp) {
  EXPECT_EQ(round_up(7, 8), 8);
  EXPECT_EQ(round_up(72, 8), 72);
  EXPECT_EQ(round_up<std::int64_t>(1281, 8), 1288);
  EXPECT_EQ(round_up(0, 8), 0);
}

// --- AsciiTable --------------------------------------------------------------

TEST(TableTest, RendersHeaderAndRows) {
  AsciiTable table("T");
  table.set_header({"a", "bb"});
  table.add_row({"1", "2"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("== T =="), std::string::npos);
  EXPECT_NE(out.find("| a"), std::string::npos);
  EXPECT_NE(out.find("| 1"), std::string::npos);
}

TEST(TableTest, RowWidthMismatchThrows) {
  AsciiTable table;
  table.set_header({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), InternalError);
}

TEST(TableTest, HeaderAfterRowsThrows) {
  AsciiTable table;
  table.add_row({"x"});
  EXPECT_THROW(table.set_header({"a"}), InternalError);
}

TEST(TableTest, SeparatorAndAlignment) {
  AsciiTable table;
  table.set_header({"col", "value"});
  table.add_row({"short", "1"});
  table.add_separator();
  table.add_row({"a-much-longer-cell", "2"});
  const std::string out = table.to_string();
  // All lines between rules have equal length.
  std::size_t expected = out.find('\n');
  EXPECT_GT(expected, 0u);
}

TEST(TableTest, CellFormatters) {
  EXPECT_EQ(cell_f(3.14159, 2), "3.14");
  EXPECT_EQ(cell_f(1.0, 0), "1");
  EXPECT_EQ(cell_i(-42), "-42");
}

// --- Rng -----------------------------------------------------------------------

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformIntWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformDoubleInHalfOpenRange) {
  Rng rng(7);
  double min = 1.0, max = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    min = std::min(min, v);
    max = std::max(max, v);
  }
  // Coverage sanity: the sample should span most of [0, 1).
  EXPECT_LT(min, 0.05);
  EXPECT_GT(max, 0.95);
}

TEST(RngTest, UniformMeanNearHalf) {
  Rng rng(99);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

}  // namespace
}  // namespace cimtpu
