#pragma once
// Multi-TPU inference: pipeline parallelism across chips in a ring (paper
// Sec. V-B: up to 4-way pipeline parallelism over the two ICI links per
// chip) plus Megatron-style tensor parallelism (Sec. III-C cites [28]).

#include <cstdint>

#include "arch/tpu_config.h"
#include "sim/workload_runner.h"

namespace cimtpu::parallel {

/// Throughput/energy of a pipelined LLM deployment.
struct LlmPipelineResult {
  int chips = 1;
  Seconds request_latency = 0;       ///< one batch through all stages
  Seconds bottleneck_stage_time = 0; ///< steady-state initiation interval
  double requests_per_second = 0;
  double tokens_per_second = 0;      ///< generated tokens/s (all sequences)
  Joules mxu_energy_per_request = 0;
  Joules ici_energy_per_request = 0;
};

/// Throughput/energy of a pipelined DiT deployment.
struct DitPipelineResult {
  int chips = 1;
  Seconds request_latency = 0;
  Seconds bottleneck_stage_time = 0;
  double images_per_second = 0;
  Joules mxu_energy_per_image = 0;
  Joules ici_energy_per_request = 0;
};

/// Evaluates LLM inference with the model's layers split evenly over
/// `chips` pipeline stages connected in a ring.
LlmPipelineResult evaluate_llm_pipeline(const arch::TpuChipConfig& chip_config,
                                        const sim::LlmScenario& scenario,
                                        int chips);

/// Evaluates a DiT forward pass over `chips` pipeline stages.
DitPipelineResult evaluate_dit_pipeline(const arch::TpuChipConfig& chip_config,
                                        const sim::DitScenario& scenario,
                                        int chips);

// --- Tensor parallelism ------------------------------------------------------

/// Shards a Transformer config across `ways` chips Megatron-style: QKV and
/// FFN1 column-parallel (heads and d_ff split), proj and FFN2 row-parallel.
/// Throws ConfigError when heads or d_ff do not divide.
models::TransformerConfig shard_tensor_parallel(
    const models::TransformerConfig& config, int ways);

/// Bytes all-reduced per layer per forward pass: two all-reduces of the
/// [rows, d_model] activation (after attention and after the FFN).
Bytes tensor_parallel_allreduce_bytes(const models::TransformerConfig& config,
                                      std::int64_t rows);

/// LLM inference with `ways`-way tensor parallelism (layers replicated,
/// matrices sharded, two ring all-reduces per layer).
struct LlmTensorParallelResult {
  int ways = 1;
  Seconds latency = 0;            ///< prefill + decode, communication included
  Seconds communication_time = 0; ///< total all-reduce time
  Joules mxu_energy = 0;          ///< summed over all chips
  Joules total_energy = 0;
};

LlmTensorParallelResult evaluate_llm_tensor_parallel(
    const arch::TpuChipConfig& chip_config, const sim::LlmScenario& scenario,
    int ways);

}  // namespace cimtpu::parallel
