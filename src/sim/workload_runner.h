#pragma once
// Stage-level workload drivers: compose the model builders with the
// simulator to produce the quantities the paper's figures report.

#include <cstdint>

#include "models/dit.h"
#include "models/llm.h"
#include "models/model_zoo.h"
#include "sim/simulator.h"

namespace cimtpu::sim {

/// An LLM serving scenario (paper Sec. V-A uses 1024 in / 512 out, batch 8).
struct LlmScenario {
  models::TransformerConfig model;
  std::int64_t batch = 8;
  std::int64_t input_len = 1024;
  std::int64_t output_len = 512;
};

/// A DiT image-generation scenario: one forward pass (one sampling step),
/// which is what the figures evaluate.
struct DitScenario {
  models::TransformerConfig model;
  models::DitGeometry geometry;
  std::int64_t batch = 8;
};

/// Results of an LLM run, split by stage as in Fig. 6 / Fig. 7.
struct LlmRunResult {
  GraphResult prefill;      ///< all layers, whole prompt
  GraphResult decode;       ///< all layers, all output tokens
  GraphResult total;        ///< prefill + decode
};

/// Chooses the attention K/V residency for a given KV footprint and chip.
ir::Residency kv_residency_for(const arch::TpuChip& chip,
                               const models::TransformerConfig& model,
                               std::int64_t batch, std::int64_t kv_len);

/// Runs one prefill layer (paper Fig. 6 left panel).
GraphResult run_prefill_layer(const Simulator& simulator,
                              const models::TransformerConfig& model,
                              std::int64_t batch, std::int64_t seq_len);

/// Runs one decode layer at the given KV length (Fig. 6 middle panel uses
/// kv_len = input 1024 + 256th token).
GraphResult run_decode_layer(const Simulator& simulator,
                             const models::TransformerConfig& model,
                             std::int64_t batch, std::int64_t kv_len);

/// Runs one DiT block (Fig. 6 right panel).
GraphResult run_dit_block(const Simulator& simulator,
                          const models::TransformerConfig& model,
                          const models::DitGeometry& geometry,
                          std::int64_t batch);

/// Full LLM inference: prefill of the prompt plus `output_len` decode steps
/// with growing KV cache, across all layers (Fig. 7 LLM panel).
LlmRunResult run_llm_inference(const Simulator& simulator,
                               const LlmScenario& scenario);

/// Full DiT forward pass: pre-process + all blocks + post-process
/// (Fig. 7 DiT panel).
GraphResult run_dit_inference(const Simulator& simulator,
                              const DitScenario& scenario);

/// Full-model LLM latency breakdown (embedding / transformer layers / head)
/// used to reproduce Fig. 2(d).
struct BreakdownResult {
  GraphResult pre;     ///< token embedding / DiT pre-process
  GraphResult core;    ///< transformer layers / DiT blocks
  GraphResult post;    ///< prediction head / DiT post-process
  Seconds total() const { return pre.latency + core.latency + post.latency; }
};

BreakdownResult run_llm_breakdown(const Simulator& simulator,
                                  const LlmScenario& scenario);
BreakdownResult run_dit_breakdown(const Simulator& simulator,
                                  const DitScenario& scenario);

}  // namespace cimtpu::sim
