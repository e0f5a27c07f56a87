// The VPU cost model.

#include <gtest/gtest.h>

#include "ir/op.h"
#include "tech/technology.h"
#include "vpu/vpu.h"

namespace cimtpu::vpu {
namespace {

// --- VPU cost model ---------------------------------------------------------------

class VpuCostTest : public ::testing::Test {
 protected:
  VpuCostTest()
      : energy_(tech::calibration_node()),
        area_(tech::calibration_node()),
        vpu_(VpuSpec{}, energy_, area_) {}
  tech::EnergyModel energy_;
  tech::AreaModel area_;
  Vpu vpu_;
};

TEST_F(VpuCostTest, SpecDefaultsMatchTableI) {
  EXPECT_EQ(VpuSpec{}.sublanes, 8);
  EXPECT_EQ(VpuSpec{}.lanes, 128);
  EXPECT_DOUBLE_EQ(vpu_.ops_per_cycle(), 1024.0);
}

TEST_F(VpuCostTest, MatmulRoutedToVpuThrows) {
  const ir::Op op = ir::make_weight_gemm("g", "G", 8, 8, 8, ir::DType::kInt8);
  EXPECT_THROW(vpu_.evaluate(op), Error);
}

TEST_F(VpuCostTest, ElementwiseCycles) {
  const ir::Op op =
      ir::make_elementwise("add", "E", 1024 * 1024, 1.0, ir::DType::kInt8);
  const VpuCost cost = vpu_.evaluate(op);
  EXPECT_DOUBLE_EQ(cost.busy_cycles, 1024.0);  // 1M ops / 1024 lanes
}

TEST_F(VpuCostTest, GeluCostsMoreThanAdd) {
  const ir::Op add =
      ir::make_elementwise("add", "E", 1 << 20, 1.0, ir::DType::kInt8);
  const ir::Op gelu = ir::make_gelu("g", "G", 1 << 20, ir::DType::kInt8);
  EXPECT_GT(vpu_.evaluate(gelu).busy_cycles, vpu_.evaluate(add).busy_cycles);
}

TEST_F(VpuCostTest, NarrowRowsWasteLanes) {
  // Decode softmax: 8 rows of 1280 vs one big row block of equal elements.
  const ir::Op narrow = ir::make_softmax("s", "A", 8, 1280, ir::DType::kInt8);
  const ir::Op wide = ir::make_softmax("s", "A", 80, 128, ir::DType::kInt8);
  // Same element count; the wide-row case fills sublanes better.
  EXPECT_GE(vpu_.evaluate(narrow).busy_cycles,
            vpu_.evaluate(wide).busy_cycles);
}

TEST_F(VpuCostTest, EnergyProportionalToOps) {
  const ir::Op small =
      ir::make_elementwise("a", "E", 1000, 1.0, ir::DType::kInt8);
  const ir::Op big =
      ir::make_elementwise("b", "E", 2000, 1.0, ir::DType::kInt8);
  EXPECT_NEAR(vpu_.evaluate(big).busy_energy,
              2 * vpu_.evaluate(small).busy_energy, 1e-15);
}

TEST_F(VpuCostTest, LeakagePositive) {
  EXPECT_GT(vpu_.leakage_power(), 0.0);
  EXPECT_GT(vpu_.area(), 0.0);
}

TEST(VpuSpecTest, Validation) {
  tech::EnergyModel energy(tech::calibration_node());
  tech::AreaModel area(tech::calibration_node());
  VpuSpec bad;
  bad.lanes = 0;
  EXPECT_THROW(Vpu(bad, energy, area), ConfigError);
}

}  // namespace
}  // namespace cimtpu::vpu
