// Lockstep wall for sim::LayerPlan: a compiled plan must reproduce the
// oracle, Simulator::run over the built layer graph, bit for bit (EXPECT_EQ
// on doubles, not NEAR) for every zoo LLM, dtype, chip preset, stage and a
// shape grid that straddles every residency crossover, whatever order the
// shapes are evaluated in.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "arch/chip.h"
#include "arch/tpu_config.h"
#include "common/status.h"
#include "models/llm.h"
#include "models/model_zoo.h"
#include "parallel/multi_chip.h"
#include "sim/layer_plan.h"
#include "sim/simulator.h"
#include "sim/workload_runner.h"

namespace cimtpu::sim {
namespace {

using models::LayerStage;

constexpr std::int64_t kBucket = 16;  // the design sweep's seqlen bucket
constexpr std::int64_t kMaxLen = std::int64_t{1} << 15;
const std::int64_t kBatches[] = {1, 2, 3, 8, 31, 32, 64};

std::vector<models::TransformerConfig> zoo_llms() {
  // Both FFN kinds (GPT-3: GeLU, Llama 2: SwiGLU), plus a tensor-parallel
  // shard, whose heads and d_ff are a quarter of the full model's.
  return {models::gpt3_30b(), models::gpt3_175b(), models::llama2_7b(),
          models::llama2_13b(),
          parallel::shard_tensor_parallel(models::llama2_13b(), 4)};
}

std::vector<std::pair<std::string, arch::TpuChipConfig>> chip_presets() {
  arch::TpuChipConfig serial_update = arch::cim_tpu_default();
  serial_update.cim.overlapped_weight_update = false;
  return {{"tpu_v4i_baseline", arch::tpu_v4i_baseline()},
          {"cim_tpu_default", arch::cim_tpu_default()},
          {"design_a", arch::design_a()},
          {"design_b", arch::design_b()},
          {"cim_tpu(1,4,4)", arch::cim_tpu(1, 4, 4)},
          {"cim_tpu(16,32,32)", arch::cim_tpu(16, 32, 32)},
          {"cim_tpu_default/serial_weight_update", serial_update}};
}

const char* stage_name(LayerStage stage) {
  return stage == LayerStage::kPrefill ? "prefill" : "decode";
}

ir::Graph build_layer(const arch::TpuChip& chip,
                      const models::TransformerConfig& model, LayerStage stage,
                      std::int64_t batch, std::int64_t len) {
  const ir::Residency kv = kv_residency_for(chip, model, batch, len);
  return stage == LayerStage::kPrefill
             ? models::build_prefill_layer(model, batch, len, kv)
             : models::build_decode_layer(model, batch, len, kv);
}

/// The step-cost oracle: sim::run_prefill_layer / sim::run_decode_layer.
GraphResult oracle(const Simulator& simulator,
                   const models::TransformerConfig& model, LayerStage stage,
                   std::int64_t batch, std::int64_t len) {
  return stage == LayerStage::kPrefill
             ? run_prefill_layer(simulator, model, batch, len)
             : run_decode_layer(simulator, model, batch, len);
}

/// Memory regime of a layer shape, nondecreasing in len: 1 when the KV
/// cache streams from HBM instead of CMEM, plus one per VMEM-declared
/// tensor larger than the double-buffered VMEM working set (the mapper
/// spills those to CMEM).
int regime(const arch::TpuChip& chip, const models::TransformerConfig& model,
           LayerStage stage, std::int64_t batch, std::int64_t len) {
  const mem::MemorySystemSpec& spec = chip.memory().spec();
  const Bytes working_set = spec.vmem.capacity / 2;
  int level =
      kv_residency_for(chip, model, batch, len) == ir::Residency::kHbm ? 1 : 0;
  const ir::Graph graph = build_layer(chip, model, stage, batch, len);
  for (const ir::Op& op : graph.ops()) {
    if (op.moving_residency == ir::Residency::kVmem &&
        op.moving_bytes() > working_set) {
      ++level;
    }
    if (op.output_residency == ir::Residency::kVmem &&
        op.output_bytes() > working_set) {
      ++level;
    }
  }
  return level;
}

/// Appends every len in (lo, hi] at which the (monotone) regime changes.
template <typename Regime>
void find_crossovers(const Regime& at, std::int64_t lo, int at_lo,
                     std::int64_t hi, int at_hi,
                     std::vector<std::int64_t>& out) {
  if (at_lo == at_hi) return;
  if (hi - lo == 1) {
    out.push_back(hi);
    return;
  }
  const std::int64_t mid = lo + (hi - lo) / 2;
  const int at_mid = at(mid);
  find_crossovers(at, lo, at_lo, mid, at_mid, out);
  find_crossovers(at, mid, at_mid, hi, at_hi, out);
}

/// A few plain lengths, plus one bucket below, just below, at and one
/// bucket above every regime crossover at this batch.
std::vector<std::int64_t> lengths_for(const arch::TpuChip& chip,
                                      const models::TransformerConfig& model,
                                      LayerStage stage, std::int64_t batch,
                                      std::vector<std::int64_t>* crossovers) {
  const auto at = [&](std::int64_t len) {
    return regime(chip, model, stage, batch, len);
  };
  std::vector<std::int64_t> found;
  find_crossovers(at, 1, at(1), kMaxLen, at(kMaxLen), found);
  std::set<std::int64_t> lens = {1, 128, 1024};
  for (const std::int64_t t : found) {
    for (const std::int64_t len : {t - kBucket, t - 1, t, t + kBucket}) {
      if (len >= 1 && len <= kMaxLen) lens.insert(len);
    }
  }
  crossovers->insert(crossovers->end(), found.begin(), found.end());
  return {lens.begin(), lens.end()};
}

/// True when the plan's totals equal the oracle's bit for bit; adds a
/// failure naming the shape otherwise.
bool matches(const CostTotals& plan, const GraphResult& expected,
             const std::string& where) {
  if (plan.latency == expected.latency &&
      plan.mxu_busy_time == expected.mxu_busy_time &&
      plan.mxu_energy() == expected.mxu_energy() &&
      plan.total_energy() == expected.total_energy()) {
    return true;
  }
  ADD_FAILURE() << where << ": plan latency " << plan.latency << " vs "
                << expected.latency << ", mxu_busy_time "
                << plan.mxu_busy_time << " vs " << expected.mxu_busy_time
                << ", mxu_energy " << plan.mxu_energy() << " vs "
                << expected.mxu_energy() << ", total_energy "
                << plan.total_energy() << " vs " << expected.total_energy();
  return false;
}

TEST(LayerPlanTest, LockstepWithSimulatorRunAcrossZooChipsAndShapes) {
  int kv_crossovers_seen = 0;
  std::int64_t shapes = 0;
  int failures = 0;
  for (const auto& [chip_name, chip_config] : chip_presets()) {
    const arch::TpuChip chip(chip_config);
    const Simulator simulator(chip);
    for (models::TransformerConfig model : zoo_llms()) {
      for (const ir::DType dtype :
           {ir::DType::kInt4, ir::DType::kInt8, ir::DType::kBf16}) {
        model.dtype = dtype;
        for (const LayerStage stage :
             {LayerStage::kPrefill, LayerStage::kDecode}) {
          // One plan per (chip, model, stage) across every batch, so the
          // per-batch memo is exercised as the serving cache uses it.
          LayerPlan plan(simulator, model, stage);
          for (const std::int64_t batch : kBatches) {
            std::vector<std::int64_t> crossovers;
            const std::vector<std::int64_t> lens =
                lengths_for(chip, model, stage, batch, &crossovers);
            for (const std::int64_t t : crossovers) {
              if (kv_residency_for(chip, model, batch, t - 1) !=
                  kv_residency_for(chip, model, batch, t)) {
                ++kv_crossovers_seen;
              }
            }
            for (const std::int64_t len : lens) {
              ++shapes;
              const bool ok = matches(
                  plan.evaluate(batch, len),
                  oracle(simulator, model, stage, batch, len),
                  chip_name + " " + model.name + " " +
                      ir::dtype_name(dtype) + " " + stage_name(stage) +
                      " batch=" + std::to_string(batch) +
                      " len=" + std::to_string(len));
              if (!ok && ++failures >= 20) FAIL() << "stopping after 20";
            }
          }
        }
      }
    }
  }
  // The grid really straddled the KV CMEM -> HBM crossover.
  EXPECT_GT(kv_crossovers_seen, 0);
  EXPECT_GT(shapes, 10000);
}

TEST(LayerPlanTest, CrossoverGridCoversSpillsInBothStages) {
  // The regime scan finds VMEM spill thresholds, not just the KV
  // crossover, in both stages of a single-chip deployment.
  const arch::TpuChip chip(arch::cim_tpu_default());
  const models::TransformerConfig model = models::llama2_7b();
  for (const LayerStage stage : {LayerStage::kPrefill, LayerStage::kDecode}) {
    std::vector<std::int64_t> crossovers;
    lengths_for(chip, model, stage, /*batch=*/32, &crossovers);
    int spills = 0;
    for (const std::int64_t t : crossovers) {
      if (kv_residency_for(chip, model, 32, t - 1) ==
          kv_residency_for(chip, model, 32, t)) {
        ++spills;
      }
    }
    EXPECT_GT(spills, 0) << stage_name(stage);
  }
}

TEST(LayerPlanTest, EvaluationOrderCannotLeakThroughTheMemo) {
  const arch::TpuChip chip(arch::cim_tpu_default());
  const Simulator simulator(chip);
  models::TransformerConfig model = models::llama2_7b();
  model.dtype = ir::DType::kInt4;
  for (const LayerStage stage : {LayerStage::kPrefill, LayerStage::kDecode}) {
    SCOPED_TRACE(stage_name(stage));
    std::vector<std::pair<std::int64_t, std::int64_t>> shapes;
    for (const std::int64_t batch : kBatches) {
      for (const std::int64_t len : {1, 16, 17, 512, 4096, 4112, 30000}) {
        shapes.emplace_back(batch, len);
      }
    }
    std::vector<std::pair<std::int64_t, std::int64_t>> descending(
        shapes.rbegin(), shapes.rend());
    std::vector<std::pair<std::int64_t, std::int64_t>> shuffled = shapes;
    std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937(7));

    // One plan walks all three orders; a fresh plan starts shuffled.
    LayerPlan plan(simulator, model, stage);
    LayerPlan fresh(simulator, model, stage);
    for (const auto* order : {&shapes, &descending, &shuffled}) {
      for (const auto& [batch, len] : *order) {
        const GraphResult expected =
            oracle(simulator, model, stage, batch, len);
        const std::string where =
            "batch=" + std::to_string(batch) + " len=" + std::to_string(len);
        matches(plan.evaluate(batch, len), expected, where);
      }
    }
    for (const auto& [batch, len] : shuffled) {
      matches(fresh.evaluate(batch, len),
              oracle(simulator, model, stage, batch, len),
              "fresh batch=" + std::to_string(batch) +
                  " len=" + std::to_string(len));
    }
  }
}

TEST(LayerPlanTest, OnlyAttentionDependsOnLenInDecode) {
  // The plan memoizes what the template says is len-independent; for
  // decode that is everything but the three attention ops, for both FFN
  // kinds.  In prefill every op scales with the prompt.
  for (const models::TransformerConfig& model :
       {models::gpt3_30b(), models::llama2_7b()}) {
    std::vector<std::string> per_len;
    for (const models::LayerOpTemplate& op :
         models::layer_template(model, LayerStage::kDecode)) {
      if (op.shape.depends_on_len()) per_len.push_back(op.name);
    }
    EXPECT_EQ(per_len, (std::vector<std::string>{"attn_qk", "attn_softmax",
                                                 "attn_sv"}))
        << model.name;
    for (const models::LayerOpTemplate& op :
         models::layer_template(model, LayerStage::kPrefill)) {
      EXPECT_TRUE(op.shape.depends_on_len()) << model.name << " " << op.name;
    }
  }
}

TEST(LayerPlanTest, RejectsNonPositiveShapes) {
  const arch::TpuChip chip(arch::cim_tpu_default());
  const Simulator simulator(chip);
  LayerPlan plan(simulator, models::llama2_7b(), LayerStage::kDecode);
  EXPECT_THROW(plan.evaluate(0, 128), ConfigError);
  EXPECT_THROW(plan.evaluate(8, 0), ConfigError);
}

}  // namespace
}  // namespace cimtpu::sim
