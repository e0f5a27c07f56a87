#include "common/units.h"

#include <gtest/gtest.h>

namespace cimtpu {
namespace {

TEST(UnitsTest, Constants) {
  EXPECT_DOUBLE_EQ(KiB, 1024.0);
  EXPECT_DOUBLE_EQ(MiB, 1024.0 * 1024.0);
  EXPECT_DOUBLE_EQ(GiB, 1024.0 * 1024.0 * 1024.0);
  EXPECT_DOUBLE_EQ(GBps, 1e9);
  EXPECT_DOUBLE_EQ(GHz, 1e9);
  EXPECT_DOUBLE_EQ(pJ, 1e-12);
  EXPECT_DOUBLE_EQ(us, 1e-6);
  EXPECT_DOUBLE_EQ(ms, 1e-3);
}

TEST(UnitsTest, FormatTimePicksScale) {
  EXPECT_EQ(format_time(1.5e-3), "1.5 ms");
  EXPECT_EQ(format_time(2.0e-6), "2 us");
  EXPECT_EQ(format_time(3.25e-9), "3.25 ns");
  EXPECT_EQ(format_time(1.0), "1 s");
}

TEST(UnitsTest, FormatEnergyPicksScale) {
  EXPECT_EQ(format_energy(1.0e-12), "1 pJ");
  EXPECT_EQ(format_energy(2.5e-6), "2.5 uJ");
  EXPECT_EQ(format_energy(42e-3), "42 mJ");
}

TEST(UnitsTest, FormatBytesBinary) {
  EXPECT_EQ(format_bytes(16 * MiB), "16 MiB");
  EXPECT_EQ(format_bytes(8 * GiB), "8 GiB");
  EXPECT_EQ(format_bytes(512), "512 B");
}

TEST(UnitsTest, FormatOpsRate) {
  EXPECT_EQ(format_ops_rate(137.6e12), "138 TOPS");
  EXPECT_EQ(format_ops_rate(455.1e9), "455 GOPS");
}

TEST(UnitsTest, FormatPower) {
  EXPECT_EQ(format_power(175.0), "175 W");
  EXPECT_EQ(format_power(1.32e-3), "1.32 mW");
}

TEST(UnitsTest, FormatRatio) {
  EXPECT_EQ(format_ratio(9.43), "9.43x");
  EXPECT_EQ(format_ratio(27.3), "27.3x");
}

TEST(UnitsTest, FormatPercentDeltaSigned) {
  EXPECT_EQ(format_percent_delta(-0.299), "-29.9%");
  EXPECT_EQ(format_percent_delta(0.0243), "+2.4%");
}

TEST(UnitsTest, FormatHandlesNegativeValues) {
  EXPECT_EQ(format_time(-1.5e-3), "-1.5 ms");
}

TEST(UnitsTest, FormatHandlesZero) {
  EXPECT_EQ(format_time(0.0), "0 ps");
  EXPECT_EQ(format_bytes(0.0), "0 B");
}

}  // namespace
}  // namespace cimtpu
