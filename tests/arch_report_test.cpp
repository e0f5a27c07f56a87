// Chip-report tests: the comparison annotates the paper's headline
// area/power ratios.

#include <gtest/gtest.h>

#include "arch/report.h"
#include "arch/tpu_config.h"

namespace cimtpu::arch {
namespace {

TEST(ChipReportTest, ComparisonShowsHeadlineRatios) {
  TpuChip baseline(tpu_v4i_baseline());
  TpuChip cim(cim_tpu_default());
  const std::string comparison = chip_comparison(baseline, cim);
  // Same peak (1x), 2.02x area, 9.43x power.
  EXPECT_NE(comparison.find("(1x)"), std::string::npos);
  EXPECT_NE(comparison.find("2.02x smaller"), std::string::npos);
  EXPECT_NE(comparison.find("9.43x lower at peak"), std::string::npos);
}

TEST(ChipReportTest, CimChipNamesCimUnit) {
  TpuChip chip(design_b());
  EXPECT_EQ(chip.mxu().name(), "cim-16x8");
}

}  // namespace
}  // namespace cimtpu::arch
