// The VPU softmax kernels and the VPU cost model.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/rng.h"
#include "ir/op.h"
#include "tech/technology.h"
#include "vpu/softmax.h"
#include "vpu/vpu.h"

namespace cimtpu::vpu {
namespace {

std::vector<float> random_row(Rng& rng, int n, double lo = -10, double hi = 10) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(lo, hi));
  return v;
}

// --- Softmax -------------------------------------------------------------------

TEST(SoftmaxTest, SumsToOne) {
  Rng rng(1);
  const auto x = random_row(rng, 100);
  for (const auto& result : {softmax_reference(x), softmax_online(x)}) {
    const double sum = std::accumulate(result.begin(), result.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(SoftmaxTest, OnlineMatchesReference) {
  Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 300));
    const auto x = random_row(rng, n);
    const auto ref = softmax_reference(x);
    const auto online = softmax_online(x);
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(online[i], ref[i], 1e-6) << "i=" << i;
    }
  }
}

TEST(SoftmaxTest, StableUnderLargeInputs) {
  // Naive exp without max-subtraction would overflow at 1000.
  const std::vector<float> x{1000.0f, 1000.0f, 999.0f};
  const auto result = softmax_online(x);
  EXPECT_FALSE(std::isnan(result[0]));
  EXPECT_NEAR(result[0], result[1], 1e-6);
  EXPECT_GT(result[0], result[2]);
}

TEST(SoftmaxTest, SingleElementIsOne) {
  EXPECT_FLOAT_EQ(softmax_online({3.5f})[0], 1.0f);
}

TEST(SoftmaxTest, EmptyThrows) {
  EXPECT_THROW(softmax_online({}), InternalError);
  EXPECT_THROW(softmax_reference({}), InternalError);
}

TEST(SoftmaxTest, OnlineStateMergeIsAssociative) {
  // The streaming property that lets the VPU process rows in chunks.
  Rng rng(3);
  const auto x = random_row(rng, 128);
  OnlineSoftmaxState whole;
  for (float v : x) whole.update(v);

  OnlineSoftmaxState left, right;
  for (int i = 0; i < 64; ++i) left.update(x[i]);
  for (int i = 64; i < 128; ++i) right.update(x[i]);
  OnlineSoftmaxState merged = left;
  merged.merge(right);

  EXPECT_FLOAT_EQ(merged.running_max, whole.running_max);
  EXPECT_NEAR(merged.running_sum, whole.running_sum,
              whole.running_sum * 1e-5);
}

TEST(SoftmaxTest, MergeWithEmptyIsIdentity) {
  OnlineSoftmaxState state;
  state.update(1.0f);
  state.update(2.0f);
  OnlineSoftmaxState copy = state;
  state.merge(OnlineSoftmaxState{});
  EXPECT_FLOAT_EQ(state.running_max, copy.running_max);
  EXPECT_FLOAT_EQ(state.running_sum, copy.running_sum);
}

TEST(SoftmaxTest, OnlineNeedsFewerPasses) {
  EXPECT_LT(online_softmax_passes(), naive_softmax_passes());
}

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
  EXPECT_EQ(vpu_.spec().sublanes, 8);
  EXPECT_EQ(vpu_.spec().lanes, 128);
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
