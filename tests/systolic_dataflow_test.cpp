// Dataflow-variant tests: output-stationary vs weight-stationary regimes.

#include <gtest/gtest.h>

#include "systolic/systolic_mxu.h"
#include "tech/technology.h"

namespace cimtpu::systolic {
namespace {

class DataflowTest : public ::testing::Test {
 protected:
  DataflowTest()
      : energy_(tech::calibration_node()), area_(tech::calibration_node()) {
    SystolicMxuSpec ws_spec{128, 128, Dataflow::kWeightStationary};
    SystolicMxuSpec os_spec{128, 128, Dataflow::kOutputStationary};
    ws_ = std::make_unique<SystolicMxu>(ws_spec, energy_, area_);
    os_ = std::make_unique<SystolicMxu>(os_spec, energy_, area_);
  }

  tech::EnergyModel energy_;
  tech::AreaModel area_;
  std::unique_ptr<SystolicMxu> ws_;
  std::unique_ptr<SystolicMxu> os_;
};

TEST_F(DataflowTest, Names) {
  EXPECT_EQ(ws_->name(), "systolic-128x128");
  EXPECT_EQ(os_->name(), "systolic-128x128-os");
}

TEST_F(DataflowTest, OsSingleTileCycleCount) {
  // One 128x128 output tile with k contraction steps: k + drain + ramp.
  GemmWorkload w{/*m=*/128, /*k=*/1000, /*n=*/128, 1, ir::DType::kInt8};
  EXPECT_DOUBLE_EQ(os_->evaluate(w).busy_cycles, 1000.0 + 128.0 + 254.0);
}

TEST_F(DataflowTest, OsWinsOnDeepContractionTallOutputs) {
  // m = n = array size, huge k: OS streams once; WS reloads weights for
  // every K-tile.
  GemmWorkload w{/*m=*/128, /*k=*/16384, /*n=*/128, 1, ir::DType::kInt8};
  EXPECT_LT(os_->evaluate(w).busy_cycles, ws_->evaluate(w).busy_cycles);
}

TEST_F(DataflowTest, WsWinsOnShallowContractionGemv) {
  // Decode attention shape (m = 1, k = d_head): OS pays a full
  // k + drain stream per narrow output tile; WS only pays the weight fill
  // plus one streamed row.
  GemmWorkload w{/*m=*/1, /*k=*/128, /*n=*/1280, /*instances=*/448,
                 ir::DType::kInt8};
  EXPECT_LT(ws_->evaluate(w).busy_cycles, os_->evaluate(w).busy_cycles);
}

TEST_F(DataflowTest, OsUtilizationSuffersOnShortM) {
  GemmWorkload w{/*m=*/1, /*k=*/1024, /*n=*/128, 1, ir::DType::kInt8};
  // Only one of 128 PE rows holds live outputs.
  EXPECT_LT(os_->evaluate(w).utilization(), 0.01);
}

TEST_F(DataflowTest, OsWeightTrafficScalesWithMTiles) {
  GemmWorkload one_tile{/*m=*/128, /*k=*/512, /*n=*/128, 1, ir::DType::kInt8};
  GemmWorkload two_tiles = one_tile;
  two_tiles.m = 256;
  EXPECT_DOUBLE_EQ(os_->evaluate(two_tiles).stationary_bytes_loaded,
                   2.0 * os_->evaluate(one_tile).stationary_bytes_loaded);
}

TEST_F(DataflowTest, BothRespectThroughputBound) {
  for (const GemmWorkload& w :
       {GemmWorkload{128, 128, 128, 1, ir::DType::kInt8},
        GemmWorkload{8192, 7168, 7168, 1, ir::DType::kInt8},
        GemmWorkload{1, 1280, 128, 448, ir::DType::kInt8}}) {
    for (SystolicMxu* mxu : {ws_.get(), os_.get()}) {
      const MxuCost cost = mxu->evaluate(w);
      EXPECT_GE(cost.busy_cycles * mxu->macs_per_cycle(),
                cost.useful_macs * 0.999999);
      EXPECT_LE(cost.utilization(), 1.0);
    }
  }
}

TEST_F(DataflowTest, LargeSquareGemmNearParity) {
  // Both dataflows approach full utilization on a big square GEMM.
  GemmWorkload w{/*m=*/8192, /*k=*/8192, /*n=*/8192, 1, ir::DType::kInt8};
  const double ws_cycles = ws_->evaluate(w).busy_cycles;
  const double os_cycles = os_->evaluate(w).busy_cycles;
  EXPECT_NEAR(ws_cycles / os_cycles, 1.0, 0.05);
}

}  // namespace
}  // namespace cimtpu::systolic
