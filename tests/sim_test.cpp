// Simulator tests: per-op latency composition, group rollups, result
// algebra, the workload runners, and the Fig. 6 points on Table IV's
// design points.

#include <gtest/gtest.h>

#include "arch/chip.h"
#include "arch/tpu_config.h"
#include "sim/simulator.h"
#include "sim/workload_runner.h"

namespace cimtpu::sim {
namespace {

class SimulatorTest : public ::testing::Test {
 protected:
  SimulatorTest()
      : baseline_(arch::tpu_v4i_baseline()),
        cim_(arch::cim_tpu_default()),
        base_sim_(baseline_),
        cim_sim_(cim_) {}

  arch::TpuChip baseline_;
  arch::TpuChip cim_;
  Simulator base_sim_;
  Simulator cim_sim_;
};

TEST_F(SimulatorTest, OpLatencyAtLeastMaxOfComputeAndMemory) {
  for (const ir::Op& op :
       {ir::make_weight_gemm("g", "G", 8192, 7168, 7168, ir::DType::kInt8),
        ir::make_weight_gemm("v", "G", 8, 7168, 7168, ir::DType::kInt8),
        ir::make_softmax("s", "A", 1024, 1024, ir::DType::kInt8)}) {
    const OpResult result = base_sim_.run_op(op);
    EXPECT_GE(result.latency,
              std::max(result.compute_time, result.memory_time));
    EXPECT_LE(result.latency,
              result.compute_time + 2 * result.memory_time + 1e-12);
  }
}

TEST_F(SimulatorTest, ComputeBoundVsMemoryBoundRegimes) {
  // Big square GEMM: compute-bound.  Skinny GEMV on HBM weights:
  // memory-bound.
  const OpResult gemm = base_sim_.run_op(
      ir::make_weight_gemm("g", "G", 8192, 7168, 7168, ir::DType::kInt8));
  EXPECT_GT(gemm.compute_time, gemm.memory_time);
  const OpResult gemv = base_sim_.run_op(
      ir::make_weight_gemm("v", "G", 1, 7168, 7168, ir::DType::kInt8));
  EXPECT_GT(gemv.memory_time, 0.0);
}

TEST_F(SimulatorTest, MatmulUsesMxuVectorOpsUseVpu) {
  const OpResult matmul = base_sim_.run_op(
      ir::make_weight_gemm("g", "G", 64, 128, 128, ir::DType::kInt8));
  EXPECT_TRUE(matmul.on_mxu);
  EXPECT_GT(matmul.mxu_busy_energy, 0);
  EXPECT_GT(matmul.units_used, 0);

  const OpResult softmax =
      base_sim_.run_op(ir::make_softmax("s", "A", 64, 128, ir::DType::kInt8));
  EXPECT_FALSE(softmax.on_mxu);
  EXPECT_DOUBLE_EQ(softmax.mxu_busy_energy, 0);
  EXPECT_GT(softmax.vpu_energy, 0);
}

TEST_F(SimulatorTest, BackgroundPowerChargedForWholeOp) {
  const OpResult softmax = base_sim_.run_op(
      ir::make_softmax("s", "A", 8192, 1024, ir::DType::kInt8));
  // All 4 MXUs idle during a VPU op.
  const Joules expected_idle =
      4.0 * softmax.latency * baseline_.mxu().idle_power(ir::DType::kInt8);
  EXPECT_NEAR(softmax.mxu_idle_energy, expected_idle, expected_idle * 1e-9);
  EXPECT_GT(softmax.mxu_leakage_energy, 0);
}

TEST_F(SimulatorTest, IdleEnergyNonNegativeForMatmuls) {
  for (std::int64_t m : {1, 8, 128, 8192}) {
    const OpResult result = base_sim_.run_op(
        ir::make_weight_gemm("g", "G", m, 7168, 7168, ir::DType::kInt8));
    EXPECT_GE(result.mxu_idle_energy, 0.0) << "m=" << m;
  }
}

TEST_F(SimulatorTest, GraphRollupConsistent) {
  const ir::Graph graph = models::build_decode_layer(
      models::gpt3_30b(), 8, 1280, ir::Residency::kCmem);
  const GraphResult result = base_sim_.run(graph);
  ASSERT_EQ(result.ops.size(), graph.size());
  Seconds latency = 0;
  Joules busy = 0;
  for (const OpResult& op : result.ops) {
    latency += op.latency;
    busy += op.mxu_busy_energy;
  }
  EXPECT_NEAR(result.latency, latency, latency * 1e-12);
  EXPECT_NEAR(result.mxu_busy_energy, busy, busy * 1e-12);
}

TEST_F(SimulatorTest, GroupSummariesPartitionTotals) {
  const ir::Graph graph = models::build_dit_block(
      models::dit_xl_2(), models::dit_geometry_512(), 8);
  const GraphResult result = base_sim_.run(graph);
  Seconds group_latency = 0;
  Joules group_energy = 0;
  for (const auto& [name, group] : result.groups) {
    group_latency += group.latency;
    group_energy += group.mxu_energy;
  }
  EXPECT_NEAR(group_latency, result.latency, result.latency * 1e-9);
  EXPECT_NEAR(group_energy, result.mxu_energy(), result.mxu_energy() * 1e-9);
}

TEST_F(SimulatorTest, ScaleMultipliesTotals) {
  const ir::Graph graph = models::build_decode_layer(
      models::gpt3_30b(), 8, 1280, ir::Residency::kCmem);
  GraphResult result = base_sim_.run(graph);
  const Seconds latency = result.latency;
  const Joules energy = result.total_energy();
  result.scale(48.0);
  EXPECT_NEAR(result.latency, 48 * latency, latency * 1e-9);
  EXPECT_NEAR(result.total_energy(), 48 * energy, energy * 1e-9);
}

TEST_F(SimulatorTest, AccumulateAddsStages) {
  const ir::Graph graph = models::build_decode_layer(
      models::gpt3_30b(), 8, 1280, ir::Residency::kCmem);
  GraphResult a = base_sim_.run(graph);
  const GraphResult b = base_sim_.run(graph);
  const Seconds single = a.latency;
  a += b;
  EXPECT_NEAR(a.latency, 2 * single, single * 1e-9);
  EXPECT_EQ(a.groups.size(), b.groups.size());
}

// --- Workload runners ----------------------------------------------------------------

TEST_F(SimulatorTest, KvResidencySelection) {
  // GPT3-30B batch 8: kv 1280 fits one operand in CMEM; batch 32 does not.
  EXPECT_EQ(kv_residency_for(baseline_, models::gpt3_30b(), 8, 1280),
            ir::Residency::kCmem);
  EXPECT_EQ(kv_residency_for(baseline_, models::gpt3_30b(), 32, 1280),
            ir::Residency::kHbm);
}

TEST_F(SimulatorTest, DecodeLatencyGrowsWithKv) {
  const auto short_kv =
      run_decode_layer(base_sim_, models::gpt3_30b(), 8, 1025);
  const auto long_kv =
      run_decode_layer(base_sim_, models::gpt3_30b(), 8, 1536);
  EXPECT_GT(long_kv.latency, short_kv.latency);
}

TEST_F(SimulatorTest, LlmInferenceComposition) {
  LlmScenario scenario;
  scenario.model = models::gpt3_30b();
  scenario.model.num_layers = 4;  // keep the test fast
  scenario.batch = 8;
  scenario.input_len = 128;
  scenario.output_len = 16;
  const LlmRunResult run = run_llm_inference(base_sim_, scenario);
  EXPECT_NEAR(run.total.latency, run.prefill.latency + run.decode.latency,
              run.total.latency * 1e-9);
  EXPECT_GT(run.prefill.latency, 0);
  EXPECT_GT(run.decode.latency, 0);
}

TEST_F(SimulatorTest, DecodeDominatesLongGenerations) {
  LlmScenario scenario;
  scenario.model = models::gpt3_30b();
  scenario.model.num_layers = 2;
  scenario.input_len = 1024;
  scenario.output_len = 512;
  const LlmRunResult run = run_llm_inference(base_sim_, scenario);
  EXPECT_GT(run.decode.latency, run.prefill.latency);
}

TEST_F(SimulatorTest, DitInferenceIncludesPrePost) {
  DitScenario scenario;
  scenario.model = models::dit_xl_2();
  scenario.geometry = models::dit_geometry_512();
  scenario.batch = 8;
  const GraphResult run = run_dit_inference(base_sim_, scenario);
  const GraphResult block =
      run_dit_block(base_sim_, scenario.model, scenario.geometry, 8);
  EXPECT_GT(run.latency, block.latency * scenario.model.num_layers);
}

TEST_F(SimulatorTest, BreakdownCoreDominates) {
  // Fig. 2(d): transformer layers must dominate end-to-end latency.
  LlmScenario scenario;
  scenario.model = models::llama2_13b();
  scenario.batch = 1;
  scenario.input_len = 128;
  scenario.output_len = 32;
  const BreakdownResult result = run_llm_breakdown(base_sim_, scenario);
  EXPECT_GT(result.core.latency / result.total(), 0.90);
}

}  // namespace
}  // namespace cimtpu::sim

namespace cimtpu::sim {
namespace {

TEST(Int4WorkloadTest, DecodeFasterAtInt4) {
  // INT4 halves weight traffic: HBM-bound decode speeds up ~2x on the CIM
  // chip (where weight ingest is already hidden).
  arch::TpuChip chip(arch::cim_tpu_default());
  Simulator simulator(chip);
  models::TransformerConfig int8_model = models::gpt3_30b();
  models::TransformerConfig int4_model = models::gpt3_30b();
  int4_model.dtype = ir::DType::kInt4;
  const auto int8_run = run_decode_layer(simulator, int8_model, 8, 1280);
  const auto int4_run = run_decode_layer(simulator, int4_model, 8, 1280);
  EXPECT_LT(int4_run.latency, int8_run.latency * 0.7);
  EXPECT_LT(int4_run.mxu_energy(), int8_run.mxu_energy());
}


// --- Table IV design points -----------------------------------------------------

struct SweepParam {
  int mxu_count;
  int grid_rows;
  int grid_cols;
};

class DesignSweepTest : public ::testing::TestWithParam<SweepParam> {
 protected:
  // The Fig. 6 points: batch 8, a 1024-token prefill, the decode of the
  // 256th token (kv 1280) and a 512x512 DiT block.
  static GraphResult prefill(const Simulator& simulator) {
    return run_prefill_layer(simulator, models::gpt3_30b(), 8, 1024);
  }
  static GraphResult decode(const Simulator& simulator) {
    return run_decode_layer(simulator, models::gpt3_30b(), 8, 1280);
  }
  static arch::TpuChipConfig config(int count_scale = 1) {
    const SweepParam& p = GetParam();
    return arch::cim_tpu(count_scale * p.mxu_count, p.grid_rows, p.grid_cols);
  }
};

TEST_P(DesignSweepTest, Fig6WorkloadsRunOnEveryDesignPoint) {
  arch::TpuChip chip(config());
  Simulator simulator(chip);
  const auto prefill_result = prefill(simulator);
  EXPECT_GT(prefill_result.latency, 0);
  EXPECT_GT(prefill_result.mxu_energy(), 0);
  const auto decode_result = decode(simulator);
  EXPECT_GT(decode_result.latency, 0);
  const auto dit_result = run_dit_block(simulator, models::dit_xl_2(),
                                        models::dit_geometry_512(), 8);
  EXPECT_GT(dit_result.latency, 0);
  // Decode is always memory-bound enough to be faster per-token than the
  // prefill layer is in total (sanity relation that holds at every point).
  EXPECT_LT(decode_result.latency, prefill_result.latency);
}

TEST_P(DesignSweepTest, PrefillLatencyDecreasesWithPeak) {
  arch::TpuChip chip(config()), doubled(config(2));
  Simulator sim_a(chip), sim_b(doubled);
  EXPECT_LT(prefill(sim_b).latency, prefill(sim_a).latency);  // compute-bound
}

TEST_P(DesignSweepTest, DecodeEnergyGrowsWithCoreCount) {
  arch::TpuChip chip(config()), doubled(config(2));
  Simulator sim_a(chip), sim_b(doubled);
  // Memory-bound decode: doubling the array mostly adds idle/leak energy.
  EXPECT_GT(decode(sim_b).mxu_energy(), decode(sim_a).mxu_energy());
}

INSTANTIATE_TEST_SUITE_P(
    TableIV, DesignSweepTest,
    ::testing::Values(SweepParam{2, 8, 8}, SweepParam{2, 16, 8},
                      SweepParam{2, 16, 16}, SweepParam{4, 8, 8},
                      SweepParam{4, 16, 8}, SweepParam{4, 16, 16}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return std::to_string(info.param.mxu_count) + "x" +
             std::to_string(info.param.grid_rows) + "x" +
             std::to_string(info.param.grid_cols);
    });

}  // namespace
}  // namespace cimtpu::sim
