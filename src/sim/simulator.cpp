#include "sim/simulator.h"

#include <algorithm>

#include "common/status.h"

namespace cimtpu::sim {

Simulator::Simulator(const arch::TpuChip& chip)
    : chip_(&chip),
      mapper_(chip.mxu(), chip.mxu_count()),
      mxu_idle_power_{chip.mxu().idle_power(ir::DType::kInt4),
                      chip.mxu().idle_power(ir::DType::kInt8),
                      chip.mxu().idle_power(ir::DType::kBf16),
                      chip.mxu().idle_power(ir::DType::kFp32)},
      mxu_leakage_power_(chip.mxu().leakage_power()),
      vpu_leakage_power_(chip.vpu().leakage_power()) {}

OpCost Simulator::cost_matmul(const ir::OpShape& op) const {
  const mapping::CandidateCost mapping = mapper_.best_candidate(op);
  const mapping::StreamingPlan plan =
      mapping::Mapper::plan_streaming(op, chip_->memory().spec());

  OpCost cost;
  cost.on_mxu = true;
  cost.split = mapping.split;
  cost.units_used = mapping.units_used;
  cost.useful_macs = op.macs();
  cost.utilization = mapping.unit_cost.utilization();

  cost.compute_time = mapping.unit_cost.busy_cycles / chip_->clock();
  cost.memory_time = plan.memory_time(chip_->memory().spec());
  // Double-buffered overlap: steady state is bounded by the slower stream;
  // the first tile's staging is exposed.
  cost.latency = std::max(cost.compute_time, cost.memory_time) +
                 cost.memory_time / plan.tiles;

  cost.mxu_busy_energy = mapping.busy_energy();
  cost.memory_energy = plan.memory_energy(chip_->memory());
  charge_background_power(op.dtype, cost);
  return cost;
}

OpCost Simulator::cost_vector_op(const ir::OpShape& op) const {
  const vpu::VpuCost vpu = chip_->vpu().evaluate(op);
  const mapping::StreamingPlan plan =
      mapping::Mapper::plan_streaming(op, chip_->memory().spec());

  OpCost cost;
  cost.on_mxu = false;
  cost.compute_time = vpu.busy_cycles / chip_->clock();
  cost.memory_time = plan.memory_time(chip_->memory().spec());
  cost.latency = std::max(cost.compute_time, cost.memory_time) +
                 cost.memory_time / plan.tiles;
  cost.vpu_energy = vpu.busy_energy;
  cost.memory_energy = plan.memory_energy(chip_->memory());
  charge_background_power(op.dtype, cost);
  return cost;
}

void Simulator::charge_background_power(ir::DType dtype, OpCost& cost) const {
  const int units = chip_->mxu_count();
  // Busy MXUs are charged through busy_energy; the rest idle-clock.
  const Seconds busy_unit_time =
      cost.on_mxu ? cost.compute_time * cost.units_used : 0.0;
  const Seconds idle_unit_time =
      std::max(0.0, static_cast<double>(units) * cost.latency -
                        busy_unit_time);
  cost.mxu_idle_energy =
      idle_unit_time * mxu_idle_power_[static_cast<std::size_t>(dtype)];
  cost.mxu_leakage_energy =
      static_cast<double>(units) * cost.latency * mxu_leakage_power_;
  // VPU leakage rides along in vpu_energy.
  cost.vpu_energy += vpu_leakage_power_ * cost.latency;
}

OpCost Simulator::cost_op(const ir::OpShape& op) const {
  return op.is_matmul() ? cost_matmul(op) : cost_vector_op(op);
}

OpResult Simulator::run_op(const ir::Op& op) const {
  OpResult result;
  static_cast<OpCost&>(result) = cost_op(op);
  result.name = op.name;
  result.group = op.group;
  return result;
}

GraphResult Simulator::run(const ir::Graph& graph) const {
  GraphResult result;
  result.name = graph.name();
  result.ops.reserve(graph.size());
  for (const ir::Op& op : graph.ops()) {
    OpResult op_result = run_op(op);
    result.add(op_result);
    GroupSummary& group = result.groups[op_result.group];
    group.latency += op_result.latency;
    group.mxu_energy += op_result.mxu_energy();
    group.total_energy += op_result.mxu_energy() + op_result.vpu_energy +
                          op_result.memory_energy;
    result.ops.push_back(std::move(op_result));
  }
  return result;
}

GraphResult& GraphResult::scale(double factor) {
  latency *= factor;
  mxu_busy_time *= factor;
  mxu_busy_energy *= factor;
  mxu_idle_energy *= factor;
  mxu_leakage_energy *= factor;
  vpu_energy *= factor;
  memory_energy *= factor;
  useful_macs *= factor;
  for (auto& [key, group] : groups) {
    group.latency *= factor;
    group.mxu_energy *= factor;
    group.total_energy *= factor;
  }
  return *this;
}

GraphResult& GraphResult::operator+=(const GraphResult& other) {
  latency += other.latency;
  mxu_busy_time += other.mxu_busy_time;
  mxu_busy_energy += other.mxu_busy_energy;
  mxu_idle_energy += other.mxu_idle_energy;
  mxu_leakage_energy += other.mxu_leakage_energy;
  vpu_energy += other.vpu_energy;
  memory_energy += other.memory_energy;
  useful_macs += other.useful_macs;
  for (const auto& [key, group] : other.groups) {
    groups[key] += group;
  }
  return *this;
}

}  // namespace cimtpu::sim
