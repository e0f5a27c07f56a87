#pragma once
// Simulation result structures: per-op, per-graph, and stage-level rollups
// with the group breakdown the paper's Fig. 6 bars report.

#include <map>
#include <string>
#include <vector>

#include "common/units.h"
#include "mapping/mapper.h"

namespace cimtpu::sim {

/// The numbers of one operator execution: everything but its labels.
struct OpCost {
  bool on_mxu = false;
  mapping::Split split = mapping::Split::kSingle;  ///< matmul only
  int units_used = 0;

  Seconds latency = 0;       ///< overlapped op latency
  Seconds compute_time = 0;  ///< MXU/VPU busy time
  Seconds memory_time = 0;   ///< streaming time (slowest channel)

  double useful_macs = 0;
  double utilization = 0;    ///< busy-time array utilization (matmul only)

  Joules mxu_busy_energy = 0;
  Joules mxu_idle_energy = 0;     ///< idle clocking during this op
  Joules mxu_leakage_energy = 0;  ///< leakage over this op's latency
  Joules vpu_energy = 0;
  Joules memory_energy = 0;

  /// Total MXU energy attributable to this op.
  Joules mxu_energy() const {
    return mxu_busy_energy + mxu_idle_energy + mxu_leakage_energy;
  }
};

/// Result of one operator execution: its cost plus labels.
struct OpResult : OpCost {
  std::string name;
  std::string group;
};

/// Op costs summed in op order (sequential execution).  Simulator::run and
/// sim::LayerPlan both accumulate through add(), so their totals agree bit
/// for bit.
struct CostTotals {
  Seconds latency = 0;
  Seconds mxu_busy_time = 0;
  Joules mxu_busy_energy = 0;
  Joules mxu_idle_energy = 0;
  Joules mxu_leakage_energy = 0;
  Joules vpu_energy = 0;
  Joules memory_energy = 0;
  double useful_macs = 0;

  /// Appends one op executed after all ops added so far.
  void add(const OpCost& op) {
    latency += op.latency;
    useful_macs += op.useful_macs;
    mxu_busy_energy += op.mxu_busy_energy;
    mxu_idle_energy += op.mxu_idle_energy;
    mxu_leakage_energy += op.mxu_leakage_energy;
    vpu_energy += op.vpu_energy;
    memory_energy += op.memory_energy;
    if (op.on_mxu) mxu_busy_time += op.compute_time;
  }

  /// Total MXU energy (the quantity the paper's Fig. 6/7 energy bars show).
  Joules mxu_energy() const {
    return mxu_busy_energy + mxu_idle_energy + mxu_leakage_energy;
  }
  /// Total modeled energy.
  Joules total_energy() const {
    return mxu_energy() + vpu_energy + memory_energy;
  }
};

/// Latency/energy attributed to one reporting group ("QKV Gen", ...).
struct GroupSummary {
  Seconds latency = 0;
  Joules mxu_energy = 0;
  Joules total_energy = 0;

  GroupSummary& operator+=(const GroupSummary& other) {
    latency += other.latency;
    mxu_energy += other.mxu_energy;
    total_energy += other.total_energy;
    return *this;
  }
};

/// Result of a graph (one layer, one block, one stage...).
struct GraphResult : CostTotals {
  std::string name;
  std::vector<OpResult> ops;  ///< single-instance detail (unscaled)
  std::map<std::string, GroupSummary> groups;

  /// Average MXU power over the graph's execution.
  Watts mxu_power() const { return latency > 0 ? mxu_energy() / latency : 0; }

  /// Scales all totals by `factor` (e.g. layer count); per-op detail keeps
  /// single-instance values.
  GraphResult& scale(double factor);

  /// Accumulates another stage's totals (sequential composition).
  GraphResult& operator+=(const GraphResult& other);
};

}  // namespace cimtpu::sim
