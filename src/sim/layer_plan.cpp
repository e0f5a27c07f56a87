#include "sim/layer_plan.h"

#include "common/status.h"
#include "sim/workload_runner.h"

namespace cimtpu::sim {

LayerPlan::LayerPlan(const Simulator& simulator,
                     const models::TransformerConfig& model,
                     models::LayerStage stage)
    : simulator_(&simulator), model_(model) {
  model_.validate();
  for (const models::LayerOpTemplate& op : models::layer_template(model_, stage)) {
    int same_as = -1;
    for (std::size_t j = 0; j < ops_.size() && same_as < 0; ++j) {
      if (ops_[j].shape == op.shape) same_as = static_cast<int>(j);
    }
    ops_.push_back({op.shape, op.shape.depends_on_len(), same_as});
    if (!ops_.back().depends_on_len) ++fixed_per_batch_;
  }
  step_costs_.resize(ops_.size());
}

const OpCost& LayerPlan::cost_into_step(std::size_t index, std::int64_t batch,
                                        std::int64_t len,
                                        ir::Residency kv_residency) {
  const PlanOp& op = ops_[index];
  OpCost& cost = step_costs_[index];
  cost = op.same_as >= 0
             ? step_costs_[static_cast<std::size_t>(op.same_as)]
             : simulator_->cost_op(op.shape.at(batch, len, kv_residency));
  return cost;
}

const OpCost* LayerPlan::fixed_costs(std::int64_t batch, std::int64_t len,
                                     ir::Residency kv_residency) {
  if (fixed_per_batch_ == 0) return nullptr;
  const auto index = static_cast<std::size_t>(batch);
  if (index >= fixed_slot_.size()) fixed_slot_.resize(index + 1, -1);
  if (fixed_slot_[index] < 0) {
    fixed_slot_[index] =
        static_cast<std::int32_t>(fixed_costs_.size() / fixed_per_batch_);
    // Equal templates share depends_on_len, so a fixed op's same_as is
    // an earlier fixed op, costed above it in this loop.
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      if (ops_[i].depends_on_len) continue;
      fixed_costs_.push_back(cost_into_step(i, batch, len, kv_residency));
    }
  }
  return &fixed_costs_[static_cast<std::size_t>(fixed_slot_[index]) *
                       fixed_per_batch_];
}

CostTotals LayerPlan::evaluate(std::int64_t batch, std::int64_t len) {
  CIMTPU_CONFIG_CHECK(batch > 0 && len > 0,
                      "layer plan needs positive batch/len");
  const ir::Residency kv =
      kv_residency_for(simulator_->chip(), model_, batch, len);
  const OpCost* fixed = fixed_costs(batch, len, kv);
  CostTotals totals;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    totals.add(ops_[i].depends_on_len ? cost_into_step(i, batch, len, kv)
                                      : *fixed++);
  }
  return totals;
}

}  // namespace cimtpu::sim
