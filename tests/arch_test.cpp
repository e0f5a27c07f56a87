// Chip configuration and assembly tests: Table I presets, Table IV design
// points, validation, and derived chip figures.

#include <gtest/gtest.h>

#include "arch/chip.h"
#include "arch/tpu_config.h"

namespace cimtpu::arch {
namespace {

TEST(TpuConfigTest, BaselineMatchesTableI) {
  const TpuChipConfig config = tpu_v4i_baseline();
  EXPECT_EQ(config.mxu_kind, MxuKind::kDigitalSystolic);
  EXPECT_EQ(config.mxu_count, 4);
  EXPECT_EQ(config.systolic.rows, 128);
  EXPECT_EQ(config.systolic.cols, 128);
  EXPECT_EQ(config.vpu.sublanes, 8);
  EXPECT_EQ(config.vpu.lanes, 128);
  EXPECT_DOUBLE_EQ(config.memory.vmem.capacity, 16 * MiB);
  EXPECT_DOUBLE_EQ(config.memory.cmem.capacity, 128 * MiB);
  EXPECT_DOUBLE_EQ(config.memory.hbm.capacity, 8 * GiB);
  EXPECT_DOUBLE_EQ(config.memory.hbm.bandwidth, 614 * GBps);
  EXPECT_EQ(config.ici.links_per_chip, 2);
  EXPECT_DOUBLE_EQ(config.ici.bandwidth_per_link, 100 * GBps);
  EXPECT_EQ(config.technology, "7nm");
  EXPECT_NO_THROW(config.validate());
}

TEST(TpuConfigTest, CimDefaultMatchesTableI) {
  const TpuChipConfig config = cim_tpu_default();
  EXPECT_EQ(config.mxu_kind, MxuKind::kCim);
  EXPECT_EQ(config.mxu_count, 4);
  EXPECT_EQ(config.cim.grid_rows, 16);
  EXPECT_EQ(config.cim.grid_cols, 8);
  EXPECT_EQ(config.cim.core_rows, 128);
  EXPECT_EQ(config.cim.core_cols, 256);
  // Same peak as the baseline (Table II parity).
  EXPECT_DOUBLE_EQ(config.total_macs_per_cycle(),
                   tpu_v4i_baseline().total_macs_per_cycle());
}

TEST(TpuConfigTest, DesignAAndB) {
  const TpuChipConfig a = design_a();
  EXPECT_EQ(a.mxu_count, 4);
  EXPECT_EQ(a.cim.grid_rows, 8);
  EXPECT_EQ(a.cim.grid_cols, 8);
  // Design A: half the baseline peak (paper Sec. V-A).
  EXPECT_DOUBLE_EQ(a.total_macs_per_cycle(),
                   tpu_v4i_baseline().total_macs_per_cycle() / 2);

  const TpuChipConfig b = design_b();
  EXPECT_EQ(b.mxu_count, 8);
  EXPECT_EQ(b.cim.grid_rows, 16);
  EXPECT_EQ(b.cim.grid_cols, 8);
  // Design B: twice the baseline peak.
  EXPECT_DOUBLE_EQ(b.total_macs_per_cycle(),
                   tpu_v4i_baseline().total_macs_per_cycle() * 2);
}

TEST(TpuConfigTest, CustomDesignPointNames) {
  const TpuChipConfig config = cim_tpu(2, 8, 8);
  EXPECT_EQ(config.name, "cim-tpu-2x(8x8)");
  EXPECT_DOUBLE_EQ(config.total_macs_per_cycle(), 2.0 * 64 * 128);
}

TEST(TpuConfigTest, EffectiveClockDefaultsToNode) {
  TpuChipConfig config = tpu_v4i_baseline();
  EXPECT_DOUBLE_EQ(config.effective_clock(), 1.05 * GHz);  // 7nm nominal
  config.clock = 0.94 * GHz;
  EXPECT_DOUBLE_EQ(config.effective_clock(), 0.94 * GHz);
  config.technology = "22nm";
  config.clock = 0;
  EXPECT_DOUBLE_EQ(config.effective_clock(), 1.0 * GHz);
}

TEST(TpuConfigTest, ValidationErrors) {
  TpuChipConfig bad = tpu_v4i_baseline();
  bad.mxu_count = 0;
  EXPECT_THROW(bad.validate(), ConfigError);
  bad = tpu_v4i_baseline();
  bad.technology = "5nm";
  EXPECT_THROW(bad.validate(), ConfigError);
  bad = cim_tpu_default();
  bad.cim.grid_rows = -1;
  EXPECT_THROW(bad.validate(), ConfigError);
}

TEST(TpuConfigTest, MxuKindNames) {
  EXPECT_EQ(mxu_kind_name(MxuKind::kDigitalSystolic), "digital-systolic");
  EXPECT_EQ(mxu_kind_name(MxuKind::kCim), "cim");
}

// --- Chip assembly ------------------------------------------------------------------

TEST(ChipTest, BaselinePeakMatchesTpuV4i) {
  TpuChip chip(tpu_v4i_baseline());
  // 65536 MACs * 2 ops * 1.05 GHz = 137.6 TOPS (the paper quotes
  // 138 TFLOPS BF16 peak for TPUv4i).
  EXPECT_NEAR(chip.peak_ops_per_second() / 1e12, 137.6, 0.5);
}

TEST(ChipTest, CimChipSamePeakHalfMxuArea) {
  TpuChip base(tpu_v4i_baseline());
  TpuChip cim(cim_tpu_default());
  EXPECT_NEAR(base.peak_ops_per_second(), cim.peak_ops_per_second(), 1e6);
  EXPECT_NEAR(base.area_report().mxus / cim.area_report().mxus, 2.02, 0.01);
}

TEST(ChipTest, AreaReportComponents) {
  TpuChip chip(tpu_v4i_baseline());
  const ChipAreaReport report = chip.area_report();
  EXPECT_GT(report.mxus, 0);
  EXPECT_GT(report.vpu, 0);
  EXPECT_GT(report.vmem, 0);
  EXPECT_GT(report.cmem, report.vmem);  // 128 MiB vs 16 MiB
  EXPECT_NEAR(report.total(),
              report.mxus + report.vpu + report.vmem + report.cmem, 1e-9);
}

TEST(ChipTest, LeakageAndIdlePowerPositive) {
  TpuChip chip(cim_tpu_default());
  EXPECT_GT(chip.mxu().leakage_power(), 0);
  EXPECT_GT(chip.mxu().idle_power(ir::DType::kInt8), 0);
  EXPECT_LT(chip.mxu().idle_power(ir::DType::kInt8),
            chip.mxu().peak_dynamic_power(ir::DType::kInt8));
}

TEST(ChipTest, MxuCountScalesDesignPoints) {
  TpuChip two(cim_tpu(2, 16, 8));
  TpuChip eight(cim_tpu(8, 16, 8));
  EXPECT_NEAR(eight.peak_ops_per_second() / two.peak_ops_per_second(), 4.0,
              1e-9);
  EXPECT_NEAR(eight.area_report().mxus / two.area_report().mxus, 4.0, 1e-9);
}

TEST(ChipTest, TechnologyAffectsAreaAndClock) {
  TpuChipConfig cfg22 = tpu_v4i_baseline();
  cfg22.technology = "22nm";
  TpuChip chip22(cfg22);
  TpuChip chip7(tpu_v4i_baseline());
  EXPECT_GT(chip22.area_report().mxus, chip7.area_report().mxus);
  EXPECT_LT(chip22.clock(), chip7.clock());
}

TEST(ChipTest, InvalidConfigThrowsOnConstruction) {
  TpuChipConfig bad = tpu_v4i_baseline();
  bad.memory.vmem.capacity = 0;
  EXPECT_THROW(TpuChip{bad}, ConfigError);
}

}  // namespace
}  // namespace cimtpu::arch
