#pragma once
// Compiled layer-cost plan: one Transformer layer stage evaluated over its
// op template (models/llm.h) instead of a rebuilt, named ir::Graph.
//
// evaluate(batch, len) costs the same ops in the same order through the
// same per-op kernel (Simulator::cost_op) and sums them through the same
// CostTotals::add as Simulator::run(build_*_layer(...)), so its totals are
// bit-identical to that oracle.  It builds no graph and allocates nothing
// per call, except the first time a batch is seen (below).
//
// Both shortcuts below are read off the template and replay per-op costs
// in place, so the sum keeps its order:
//   * ops whose shape cannot change with len at a fixed batch (decode's
//     projections, FFN and norms: everything but attn_qk, attn_softmax
//     and attn_sv) are costed once per batch.  In prefill every op scales
//     with the prompt length, so nothing is memoized;
//   * an op whose template equals an earlier op's (ln2 and ln1, ffn_up
//     and ffn_gate, residual2 and residual1) reuses that op's cost.

#include <cstdint>
#include <vector>

#include "models/llm.h"
#include "models/transformer.h"
#include "sim/report.h"
#include "sim/simulator.h"

namespace cimtpu::sim {

class LayerPlan {
 public:
  /// `simulator` must outlive the plan.
  LayerPlan(const Simulator& simulator, const models::TransformerConfig& model,
            models::LayerStage stage);

  /// Totals of one layer at step shape (batch, len), with the KV residency
  /// sim::kv_residency_for picks for that shape.
  CostTotals evaluate(std::int64_t batch, std::int64_t len);

 private:
  struct PlanOp {
    models::OpShapeTemplate shape;
    bool depends_on_len;
    int same_as;  ///< earlier op with an equal template, or -1
  };

  /// Costs op `index` at (batch, len) into step_costs_[index].
  const OpCost& cost_into_step(std::size_t index, std::int64_t batch,
                               std::int64_t len, ir::Residency kv_residency);

  /// Costs of the len-independent ops at `batch`, in op order, computed on
  /// the first call for that batch.
  const OpCost* fixed_costs(std::int64_t batch, std::int64_t len,
                            ir::Residency kv_residency);

  const Simulator* simulator_;
  models::TransformerConfig model_;
  std::vector<PlanOp> ops_;
  std::vector<OpCost> step_costs_;      ///< per op, for the current shape
  std::size_t fixed_per_batch_ = 0;     ///< ops with depends_on_len false
  std::vector<std::int32_t> fixed_slot_;  ///< batch -> slot, -1 = not yet
  std::vector<OpCost> fixed_costs_;     ///< fixed_per_batch_ per slot
};

}  // namespace cimtpu::sim
