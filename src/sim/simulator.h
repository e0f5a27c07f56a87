#pragma once
// The operator-level performance/energy simulator.
//
// Methodology (paper Sec. III): operators execute sequentially on the
// TensorCore; within an operator, compute (MXU or VPU) overlaps with
// memory streaming via double buffering, so op latency is
//   max(compute, memory) + first-tile exposure.
// Matmuls are partitioned across the chip's MXUs by the mapping engine;
// idle MXU clocking and leakage are charged for the full op latency so the
// energy bars include the cost of waiting on memory — the effect that
// separates the paper's system-level energy ratios (9.2x-27.3x) from the
// macro-level one (9.43x).

#include <array>

#include "arch/chip.h"
#include "ir/graph.h"
#include "mapping/mapper.h"
#include "sim/report.h"

namespace cimtpu::sim {

class Simulator {
 public:
  explicit Simulator(const arch::TpuChip& chip);

  const arch::TpuChip& chip() const { return *chip_; }

  /// Costs a single operator: the per-op kernel behind run_op and
  /// sim::LayerPlan.  Allocates nothing.
  OpCost cost_op(const ir::OpShape& op) const;

  /// Costs a single operator and labels the result.
  OpResult run_op(const ir::Op& op) const;

  /// Costs a graph (sequential op execution) and rolls up group summaries.
  GraphResult run(const ir::Graph& graph) const;

 private:
  OpCost cost_matmul(const ir::OpShape& op) const;
  OpCost cost_vector_op(const ir::OpShape& op) const;
  /// Charges MXU idle clocking + leakage and VPU leakage for an op.
  void charge_background_power(ir::DType dtype, OpCost& cost) const;

  const arch::TpuChip* chip_;
  mapping::Mapper mapper_;
  // Background power terms, read once per op: per-dtype MXU idle power
  // (indexed by ir::DType), per-unit MXU leakage and VPU leakage.
  std::array<Watts, 4> mxu_idle_power_;
  Watts mxu_leakage_power_;
  Watts vpu_leakage_power_;
};

}  // namespace cimtpu::sim
