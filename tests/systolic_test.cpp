// Digital systolic MXU cost-model tests: exact cycle counts from the
// SCALE-Sim-style analytic formulas, utilization regimes, and energy
// composition.

#include <gtest/gtest.h>

#include "systolic/systolic_mxu.h"
#include "tech/technology.h"

namespace cimtpu::systolic {
namespace {

class SystolicTest : public ::testing::Test {
 protected:
  SystolicTest()
      : energy_(tech::calibration_node()),
        area_(tech::calibration_node()),
        mxu_(SystolicMxuSpec{128, 128}, energy_, area_) {}

  tech::EnergyModel energy_;
  tech::AreaModel area_;
  SystolicMxu mxu_;
};

TEST_F(SystolicTest, BasicProperties) {
  EXPECT_EQ(mxu_.name(), "systolic-128x128");
  EXPECT_DOUBLE_EQ(mxu_.macs_per_cycle(), 16384.0);
}

TEST_F(SystolicTest, SingleTileCycleCount) {
  // One 128x128 tile, m rows: load(128) + m, plus ramp 254 once.
  GemmWorkload w{/*m=*/100, /*k=*/128, /*n=*/128, /*instances=*/1,
                 ir::DType::kInt8};
  const MxuCost cost = mxu_.evaluate(w);
  EXPECT_DOUBLE_EQ(cost.busy_cycles, 128.0 + 100.0 + 254.0);
}

TEST_F(SystolicTest, TiledGemmCycleCount) {
  // k = 256 -> 2 K-tiles, n = 384 -> 3 N-tiles: 6 tiles.
  GemmWorkload w{/*m=*/64, /*k=*/256, /*n=*/384, /*instances=*/1,
                 ir::DType::kInt8};
  const MxuCost cost = mxu_.evaluate(w);
  EXPECT_DOUBLE_EQ(cost.busy_cycles, 6.0 * (128.0 + 64.0) + 254.0);
}

TEST_F(SystolicTest, PartialTilesPadToFullArray) {
  // k = 129 pads to 2 K-tiles even though barely over: the per-tile
  // load+stream cost doubles while the once-per-instance ramp does not.
  GemmWorkload a{/*m=*/8, /*k=*/128, /*n=*/128, 1, ir::DType::kInt8};
  GemmWorkload b{/*m=*/8, /*k=*/129, /*n=*/128, 1, ir::DType::kInt8};
  const double ca = mxu_.evaluate(a).busy_cycles;  // 136 + 254
  const double cb = mxu_.evaluate(b).busy_cycles;  // 2*136 + 254
  EXPECT_DOUBLE_EQ(cb - ca, 136.0);
}

TEST_F(SystolicTest, InstancesScaleLinearly) {
  GemmWorkload w{/*m=*/8, /*k=*/128, /*n=*/1280, /*instances=*/1,
                 ir::DType::kInt8};
  GemmWorkload w8 = w;
  w8.instances = 8;
  EXPECT_DOUBLE_EQ(mxu_.evaluate(w8).busy_cycles,
                   8.0 * mxu_.evaluate(w).busy_cycles);
}

TEST_F(SystolicTest, Bf16WeightLoadTakesTwiceAsLong) {
  GemmWorkload i8{/*m=*/1, /*k=*/128, /*n=*/128, 1, ir::DType::kInt8};
  GemmWorkload bf = i8;
  bf.dtype = ir::DType::kBf16;
  // Same stream/ramp; weight fill doubles (two byte-planes).
  EXPECT_DOUBLE_EQ(mxu_.evaluate(bf).busy_cycles - mxu_.evaluate(i8).busy_cycles,
                   128.0);
}

TEST_F(SystolicTest, GemvUtilizationCollapses) {
  // Large-m GEMM: utilization near 1.  GEMV (m = 1): utilization ~ 1/129.
  GemmWorkload gemm{/*m=*/8192, /*k=*/128, /*n=*/128, 1, ir::DType::kInt8};
  GemmWorkload gemv{/*m=*/1, /*k=*/128, /*n=*/128, 1, ir::DType::kInt8};
  EXPECT_GT(mxu_.evaluate(gemm).utilization(), 0.9);
  EXPECT_LT(mxu_.evaluate(gemv).utilization(), 0.01);
}

TEST_F(SystolicTest, UsefulMacsIndependentOfPadding) {
  GemmWorkload w{/*m=*/10, /*k=*/100, /*n=*/70, /*instances=*/3,
                 ir::DType::kInt8};
  EXPECT_DOUBLE_EQ(mxu_.evaluate(w).useful_macs, 3.0 * 10 * 100 * 70);
}

TEST_F(SystolicTest, WeightBytesCountPaddedTiles) {
  GemmWorkload w{/*m=*/1, /*k=*/130, /*n=*/10, /*instances=*/1,
                 ir::DType::kInt8};
  // 2 K-tiles x 1 N-tile x 128x128 bytes.
  EXPECT_DOUBLE_EQ(mxu_.evaluate(w).stationary_bytes_loaded, 2.0 * 16384);
}

TEST_F(SystolicTest, EnergyComposition) {
  GemmWorkload w{/*m=*/128, /*k=*/128, /*n=*/128, 1, ir::DType::kInt8};
  const MxuCost cost = mxu_.evaluate(w);
  const double bubbles = cost.occupied_mac_slots - cost.useful_macs;
  const Joules expected =
      cost.useful_macs * energy_.digital_mac(ir::DType::kInt8) +
      bubbles * energy_.digital_bubble_slot(ir::DType::kInt8) +
      cost.stationary_bytes_loaded * energy_.digital_weight_load_per_byte();
  EXPECT_NEAR(cost.busy_energy, expected, expected * 1e-12);
}

TEST_F(SystolicTest, PeakPowerMatchesTableIIAnchor) {
  // TOPS/W at the 22 nm reference clock must be 0.77 by construction.
  EXPECT_NEAR(mxu_.tops_per_watt(ir::DType::kInt8, 1 * GHz), 0.77, 1e-6);
}

TEST_F(SystolicTest, AreaEfficiencyMatchesTableIIAnchor) {
  EXPECT_NEAR(mxu_.tops_per_mm2(1 * GHz), 0.648, 1e-6);
}

TEST_F(SystolicTest, IdlePowerBelowPeak) {
  EXPECT_LT(mxu_.idle_power(ir::DType::kInt8),
            mxu_.peak_dynamic_power(ir::DType::kInt8));
  EXPECT_GT(mxu_.idle_power(ir::DType::kInt8), 0.0);
}

TEST_F(SystolicTest, InvalidWorkloadThrows) {
  GemmWorkload w{/*m=*/0, /*k=*/128, /*n=*/128, 1, ir::DType::kInt8};
  EXPECT_THROW(mxu_.evaluate(w), InternalError);
}

TEST(SystolicSpecTest, InvalidSpecThrows) {
  tech::EnergyModel energy(tech::calibration_node());
  tech::AreaModel area(tech::calibration_node());
  EXPECT_THROW(SystolicMxu(SystolicMxuSpec{0, 128}, energy, area), ConfigError);
  EXPECT_THROW(SystolicMxu(SystolicMxuSpec{128, -1}, energy, area),
               ConfigError);
}

// --- Parameterized property sweep ----------------------------------------------

struct GemmCase {
  std::int64_t m, k, n, instances;
};

class SystolicPropertyTest : public ::testing::TestWithParam<GemmCase> {
 protected:
  SystolicPropertyTest()
      : energy_(tech::calibration_node()),
        area_(tech::calibration_node()),
        mxu_(SystolicMxuSpec{128, 128}, energy_, area_) {}
  tech::EnergyModel energy_;
  tech::AreaModel area_;
  SystolicMxu mxu_;
};

TEST_P(SystolicPropertyTest, UtilizationBounded) {
  const GemmCase& c = GetParam();
  GemmWorkload w{c.m, c.k, c.n, c.instances, ir::DType::kInt8};
  const MxuCost cost = mxu_.evaluate(w);
  EXPECT_GT(cost.utilization(), 0.0);
  EXPECT_LE(cost.utilization(), 1.0);
}

TEST_P(SystolicPropertyTest, EnergyAtLeastUsefulMacs) {
  const GemmCase& c = GetParam();
  GemmWorkload w{c.m, c.k, c.n, c.instances, ir::DType::kInt8};
  const MxuCost cost = mxu_.evaluate(w);
  EXPECT_GE(cost.busy_energy,
            cost.useful_macs * energy_.digital_mac(ir::DType::kInt8));
}

TEST_P(SystolicPropertyTest, CyclesAboveThroughputBound) {
  const GemmCase& c = GetParam();
  GemmWorkload w{c.m, c.k, c.n, c.instances, ir::DType::kInt8};
  const MxuCost cost = mxu_.evaluate(w);
  EXPECT_GE(cost.busy_cycles * mxu_.macs_per_cycle(),
            cost.useful_macs * 0.999999);
}

TEST_P(SystolicPropertyTest, MonotonicInM) {
  const GemmCase& c = GetParam();
  GemmWorkload w{c.m, c.k, c.n, c.instances, ir::DType::kInt8};
  GemmWorkload bigger = w;
  bigger.m = w.m * 2;
  EXPECT_GT(mxu_.evaluate(bigger).busy_cycles, mxu_.evaluate(w).busy_cycles);
}

INSTANTIATE_TEST_SUITE_P(
    GemmShapes, SystolicPropertyTest,
    ::testing::Values(GemmCase{1, 128, 1280, 448},    // LLM decode attention
                      GemmCase{8, 7168, 21504, 1},    // LLM decode QKV
                      GemmCase{8192, 7168, 7168, 1},  // LLM prefill proj
                      GemmCase{1024, 72, 1024, 128},  // DiT attention QK
                      GemmCase{1024, 1024, 72, 128},  // DiT attention SV
                      GemmCase{3, 5, 7, 2},           // tiny odd shape
                      GemmCase{1, 1, 1, 1},           // degenerate
                      GemmCase{127, 127, 127, 1},     // just under tile
                      GemmCase{129, 129, 129, 1}));   // just over tile

}  // namespace
}  // namespace cimtpu::systolic
