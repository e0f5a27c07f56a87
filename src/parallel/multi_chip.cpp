#include "parallel/multi_chip.h"

#include <algorithm>

#include "common/math_util.h"
#include "common/status.h"

namespace cimtpu::parallel {
namespace {

/// Per-request activation bytes crossing one stage boundary: the prompt
/// activations once (prefill handoff) plus one token row per decode step.
Bytes llm_boundary_bytes(const sim::LlmScenario& scenario) {
  const double elem = ir::dtype_bytes(scenario.model.dtype);
  const Bytes prefill = static_cast<double>(scenario.batch) *
                        scenario.input_len * scenario.model.d_model * elem;
  const Bytes decode = static_cast<double>(scenario.batch) *
                       scenario.output_len * scenario.model.d_model * elem;
  return prefill + decode;
}

}  // namespace

LlmPipelineResult evaluate_llm_pipeline(const arch::TpuChipConfig& chip_config,
                                        const sim::LlmScenario& scenario,
                                        int chips) {
  CIMTPU_CONFIG_CHECK(chips >= 1, "pipeline needs >= 1 chip");
  CIMTPU_CONFIG_CHECK(scenario.model.num_layers >= chips,
                      "fewer layers than pipeline stages");

  arch::TpuChip chip(chip_config);
  sim::Simulator simulator(chip);

  // Layers split as evenly as possible; the bottleneck stage has the
  // ceiling share.
  const std::int64_t bottleneck_layers =
      ceil_div<std::int64_t>(scenario.model.num_layers, chips);

  sim::LlmScenario stage_scenario = scenario;
  stage_scenario.model.num_layers = bottleneck_layers;
  const sim::LlmRunResult bottleneck =
      sim::run_llm_inference(simulator, stage_scenario);

  // Whole-model result for latency/energy (all stages combined).
  const sim::LlmRunResult full = sim::run_llm_inference(simulator, scenario);

  LlmPipelineResult result;
  result.chips = chips;

  // Inter-stage activation handoffs over ICI (ring neighbours).
  const Bytes boundary = llm_boundary_bytes(scenario);
  const Seconds transfer_per_boundary = chip.ici().p2p_time(boundary);
  const int boundaries = chips - 1;

  result.request_latency =
      full.total.latency + boundaries * transfer_per_boundary;
  result.bottleneck_stage_time =
      bottleneck.total.latency + (boundaries > 0 ? transfer_per_boundary : 0.0);
  result.requests_per_second = 1.0 / result.bottleneck_stage_time;
  result.tokens_per_second = result.requests_per_second *
                             static_cast<double>(scenario.batch) *
                             scenario.output_len;
  result.ici_energy_per_request =
      boundaries * chip.ici().p2p_energy(boundary);
  result.mxu_energy_per_request = full.total.mxu_energy();
  return result;
}

DitPipelineResult evaluate_dit_pipeline(const arch::TpuChipConfig& chip_config,
                                        const sim::DitScenario& scenario,
                                        int chips) {
  CIMTPU_CONFIG_CHECK(chips >= 1, "pipeline needs >= 1 chip");
  CIMTPU_CONFIG_CHECK(scenario.model.num_layers >= chips,
                      "fewer DiT blocks than pipeline stages");

  arch::TpuChip chip(chip_config);
  sim::Simulator simulator(chip);

  const std::int64_t bottleneck_layers =
      ceil_div<std::int64_t>(scenario.model.num_layers, chips);
  sim::DitScenario stage_scenario = scenario;
  stage_scenario.model.num_layers = bottleneck_layers;

  const sim::GraphResult bottleneck =
      sim::run_dit_inference(simulator, stage_scenario);
  const sim::GraphResult full = sim::run_dit_inference(simulator, scenario);

  DitPipelineResult result;
  result.chips = chips;

  const Bytes boundary = static_cast<double>(scenario.batch) *
                         scenario.geometry.tokens() *
                         scenario.model.d_model *
                         ir::dtype_bytes(scenario.model.dtype);
  const Seconds transfer = chip.ici().p2p_time(boundary);
  const int boundaries = chips - 1;

  result.request_latency = full.latency + boundaries * transfer;
  result.bottleneck_stage_time =
      bottleneck.latency + (boundaries > 0 ? transfer : 0.0);
  result.images_per_second = static_cast<double>(scenario.batch) /
                             result.bottleneck_stage_time;
  result.ici_energy_per_request = boundaries * chip.ici().p2p_energy(boundary);
  result.mxu_energy_per_image =
      full.mxu_energy() / static_cast<double>(scenario.batch);
  return result;
}

models::TransformerConfig shard_tensor_parallel(
    const models::TransformerConfig& config, int ways) {
  CIMTPU_CONFIG_CHECK(ways >= 1, "tensor parallel ways must be >= 1");
  CIMTPU_CONFIG_CHECK(config.num_heads % ways == 0,
                      "heads (" << config.num_heads
                                << ") not divisible by tp ways " << ways);
  CIMTPU_CONFIG_CHECK(config.d_ff % ways == 0,
                      "d_ff (" << config.d_ff << ") not divisible by tp ways "
                               << ways);
  models::TransformerConfig shard = config;
  shard.name = config.name + "-tp" + std::to_string(ways);
  shard.num_heads = config.num_heads / ways;
  // d_model stays (row-parallel inputs are full-width); the sharded QKV /
  // FFN widths follow from heads and d_ff.
  shard.d_ff = config.d_ff / ways;
  return shard;
}

Bytes tensor_parallel_allreduce_bytes(const models::TransformerConfig& config,
                                      std::int64_t rows) {
  return 2.0 * static_cast<double>(rows) * config.d_model *
         ir::dtype_bytes(config.dtype);
}

LlmTensorParallelResult evaluate_llm_tensor_parallel(
    const arch::TpuChipConfig& chip_config, const sim::LlmScenario& scenario,
    int ways) {
  arch::TpuChip chip(chip_config);
  sim::Simulator simulator(chip);

  sim::LlmScenario sharded = scenario;
  sharded.model = shard_tensor_parallel(scenario.model, ways);

  const sim::LlmRunResult run = sim::run_llm_inference(simulator, sharded);

  LlmTensorParallelResult result;
  result.ways = ways;

  // Two ring all-reduces per layer: over [batch*input_len, d_model] during
  // prefill and [batch, d_model] per decode step.
  Seconds comm = 0;
  if (ways > 1) {
    const Bytes prefill_bytes = tensor_parallel_allreduce_bytes(
        scenario.model, scenario.batch * scenario.input_len);
    const Bytes decode_bytes =
        tensor_parallel_allreduce_bytes(scenario.model, scenario.batch);
    comm = scenario.model.num_layers *
           (chip.ici().all_reduce_time(prefill_bytes, ways) +
            static_cast<double>(scenario.output_len) *
                chip.ici().all_reduce_time(decode_bytes, ways));
  }
  result.communication_time = comm;
  result.latency = run.total.latency + comm;
  result.mxu_energy = run.total.mxu_energy() * ways;
  result.total_energy = run.total.total_energy() * ways;
  return result;
}

}  // namespace cimtpu::parallel
