// Capacity-planning tests: the GPT3-30B-does-not-fit observation that
// motivates the paper's multi-device evaluation.

#include <gtest/gtest.h>

#include "models/model_zoo.h"
#include "parallel/capacity.h"

namespace cimtpu::parallel {
namespace {

TEST(CapacityTest, Gpt330bNeedsMultipleChips) {
  const CapacityPlan plan = plan_capacity(arch::tpu_v4i_baseline(),
                                          models::gpt3_30b(), 8, 1536);
  // ~30 GB of weights + ~10.6 GB of KV against 7.2 GB usable per chip.
  EXPECT_GE(plan.min_pipeline_stages, 4);
  EXPECT_LE(plan.min_pipeline_stages, 8);
  EXPECT_NEAR(plan.weight_bytes / 1e9, 30.0, 1.0);
}

TEST(CapacityTest, DitFitsOneChip) {
  const CapacityPlan plan = plan_capacity(arch::tpu_v4i_baseline(),
                                          models::dit_xl_2(), 8, 1024);
  EXPECT_EQ(plan.min_pipeline_stages, 1);
}

TEST(CapacityTest, Llama13bFitsOneChipWithoutKv) {
  // 13 GB INT8 > 8 GB: Llama2-13B also needs 2+ chips at INT8 weights.
  const CapacityPlan plan = plan_capacity(arch::tpu_v4i_baseline(),
                                          models::llama2_13b(), 1, 512);
  EXPECT_EQ(plan.min_pipeline_stages, 2);
}

TEST(CapacityTest, KvGrowsWithBatchAndLength) {
  const CapacityPlan small = plan_capacity(arch::tpu_v4i_baseline(),
                                           models::gpt3_30b(), 1, 128);
  const CapacityPlan big = plan_capacity(arch::tpu_v4i_baseline(),
                                         models::gpt3_30b(), 32, 2048);
  EXPECT_GT(big.kv_bytes, 100 * small.kv_bytes);
  EXPECT_GE(big.min_pipeline_stages, small.min_pipeline_stages);
}

TEST(CapacityTest, ReserveFractionShrinksAvailable) {
  const arch::TpuChipConfig chip = arch::tpu_v4i_baseline();
  const CapacityPlan plan = plan_capacity(chip, models::gpt3_30b(), 8, 1536);
  EXPECT_LT(plan.per_chip_available, chip.memory.hbm.capacity);
  EXPECT_DOUBLE_EQ(plan.per_chip_available,
                   chip.memory.hbm.capacity * (1.0 - kHbmReserveFraction));
}

TEST(CapacityTest, EmbeddingsCounted) {
  // GPT-3 vocab 50257 x 7168 bytes ~ 0.36 GB on top of the stack.
  const CapacityPlan plan = plan_capacity(arch::tpu_v4i_baseline(),
                                          models::gpt3_30b(), 1, 16);
  EXPECT_GT(plan.weight_bytes, models::gpt3_30b().stack_weight_bytes());
}

TEST(CapacityTest, Validation) {
  EXPECT_THROW(plan_capacity(arch::tpu_v4i_baseline(), models::gpt3_30b(), 0,
                             128),
               ConfigError);
  // A model too large for its own layer count to split.
  models::TransformerConfig huge = models::gpt3_30b();
  huge.num_layers = 1;
  huge.d_model = 7168 * 8;
  huge.num_heads = 56;
  huge.d_ff = 4 * huge.d_model;
  EXPECT_THROW(plan_capacity(arch::tpu_v4i_baseline(), huge, 64, 4096),
               ConfigError);
}

}  // namespace
}  // namespace cimtpu::parallel
