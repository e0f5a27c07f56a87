#include "sim/workload_runner.h"

#include "common/status.h"

namespace cimtpu::sim {

ir::Residency kv_residency_for(const arch::TpuChip& chip,
                               const models::TransformerConfig& model,
                               std::int64_t batch, std::int64_t kv_len) {
  // One attention operand (K or V): [batch, kv_len, d_model].
  const Bytes operand = static_cast<double>(batch) * kv_len * model.d_model *
                        ir::dtype_bytes(model.dtype);
  // Reserve a slice of CMEM for streaming weight tiles.
  const Bytes reserved = chip.memory().spec().cmem.capacity / 8;
  return models::choose_kv_residency(operand,
                                     chip.memory().spec().cmem.capacity,
                                     reserved);
}

GraphResult run_prefill_layer(const Simulator& simulator,
                              const models::TransformerConfig& model,
                              std::int64_t batch, std::int64_t seq_len) {
  const ir::Residency kv =
      kv_residency_for(simulator.chip(), model, batch, seq_len);
  return simulator.run(models::build_prefill_layer(model, batch, seq_len, kv));
}

GraphResult run_decode_layer(const Simulator& simulator,
                             const models::TransformerConfig& model,
                             std::int64_t batch, std::int64_t kv_len) {
  const ir::Residency kv =
      kv_residency_for(simulator.chip(), model, batch, kv_len);
  return simulator.run(models::build_decode_layer(model, batch, kv_len, kv));
}

GraphResult run_dit_block(const Simulator& simulator,
                          const models::TransformerConfig& model,
                          const models::DitGeometry& geometry,
                          std::int64_t batch) {
  return simulator.run(models::build_dit_block(model, geometry, batch));
}

LlmRunResult run_llm_inference(const Simulator& simulator,
                               const LlmScenario& scenario) {
  CIMTPU_CONFIG_CHECK(scenario.input_len > 0,
                      "LLM scenario needs a positive input length");
  CIMTPU_CONFIG_CHECK(scenario.output_len >= 0,
                      "LLM scenario needs a non-negative output length");
  CIMTPU_CONFIG_CHECK(scenario.batch >= 1, "LLM scenario needs batch >= 1");
  LlmRunResult result;

  GraphResult prefill_layer = run_prefill_layer(
      simulator, scenario.model, scenario.batch, scenario.input_len);
  result.prefill = prefill_layer;
  result.prefill.scale(static_cast<double>(scenario.model.num_layers));
  result.prefill.name = scenario.model.name + "-prefill";

  // Decode steps with growing KV length.  Consecutive steps differ by one
  // cache row; evaluating every step is cheap (analytic model), and keeps
  // crossover effects (KV spilling out of CMEM) exact.
  result.decode.name = scenario.model.name + "-decode";
  for (std::int64_t t = 1; t <= scenario.output_len; ++t) {
    const std::int64_t kv_len = scenario.input_len + t;
    GraphResult step = run_decode_layer(simulator, scenario.model,
                                        scenario.batch, kv_len);
    step.scale(static_cast<double>(scenario.model.num_layers));
    result.decode += step;
  }
  result.total = result.prefill;
  result.total += result.decode;
  result.total.name = scenario.model.name + "-total";
  return result;
}

GraphResult run_dit_inference(const Simulator& simulator,
                              const DitScenario& scenario) {
  GraphResult block = run_dit_block(simulator, scenario.model,
                                    scenario.geometry, scenario.batch);
  block.scale(static_cast<double>(scenario.model.num_layers));

  GraphResult pre = simulator.run(models::build_dit_preprocess(
      scenario.model, scenario.geometry, scenario.batch));
  GraphResult post = simulator.run(models::build_dit_postprocess(
      scenario.model, scenario.geometry, scenario.batch));

  GraphResult total = pre;
  total += block;
  total += post;
  total.name = scenario.model.name + "-forward";
  return total;
}

BreakdownResult run_llm_breakdown(const Simulator& simulator,
                                  const LlmScenario& scenario) {
  BreakdownResult result;
  result.pre = simulator.run(models::build_token_embedding(
      scenario.model, scenario.batch * scenario.input_len));

  LlmRunResult run = run_llm_inference(simulator, scenario);
  result.core = run.total;

  // The prediction head runs once per generated token on batch rows.
  GraphResult head = simulator.run(
      models::build_prediction_head(scenario.model, scenario.batch));
  head.scale(static_cast<double>(scenario.output_len));
  result.post = head;
  return result;
}

BreakdownResult run_dit_breakdown(const Simulator& simulator,
                                  const DitScenario& scenario) {
  BreakdownResult result;
  result.pre = simulator.run(models::build_dit_preprocess(
      scenario.model, scenario.geometry, scenario.batch));
  GraphResult block = run_dit_block(simulator, scenario.model,
                                    scenario.geometry, scenario.batch);
  block.scale(static_cast<double>(scenario.model.num_layers));
  result.core = block;
  result.post = simulator.run(models::build_dit_postprocess(
      scenario.model, scenario.geometry, scenario.batch));
  return result;
}

}  // namespace cimtpu::sim
