#pragma once
// Roofline analysis: classifies every operator by its binding resource
// (MXU compute, HBM, OCI/CMEM, or VMEM bandwidth) and computes attained
// vs attainable throughput.  This is the lens behind the paper's central
// observation — prefill is compute-bound, decode is memory-bound — and
// paper_figures' roofline entry uses it to show *why* each design choice
// moves (or fails to move) each workload.

#include <string>
#include <vector>

#include "sim/simulator.h"

namespace cimtpu::sim {

enum class BoundResource { kCompute, kHbm, kOci, kVmem };

std::string bound_resource_name(BoundResource resource);

struct RooflinePoint {
  std::string op;
  std::string group;
  double flops = 0;                   ///< useful arithmetic work
  double operational_intensity = 0;   ///< flops per HBM byte (inf -> no HBM)
  double attained_flops_per_s = 0;    ///< flops / op latency
  double compute_roof = 0;            ///< chip peak for this op's engine
  double memory_roof = 0;             ///< bandwidth-limited flops/s
  BoundResource bound = BoundResource::kCompute;

  /// Fraction of the binding roof actually attained (<= ~1).
  double roof_utilization() const {
    const double roof = std::min(compute_roof, memory_roof);
    return roof > 0 ? attained_flops_per_s / roof : 0;
  }
};

/// Analyzes one operator on the simulator's chip.
RooflinePoint analyze_op(const Simulator& simulator, const ir::Op& op);

/// Analyzes a whole graph.
std::vector<RooflinePoint> analyze_graph(const Simulator& simulator,
                                         const ir::Graph& graph);

/// Aggregate fraction of graph latency spent under each binding resource.
struct BoundBreakdown {
  Seconds compute_bound = 0;
  Seconds hbm_bound = 0;
  Seconds oci_bound = 0;
  Seconds vmem_bound = 0;
  Seconds total() const {
    return compute_bound + hbm_bound + oci_bound + vmem_bound;
  }
};

BoundBreakdown bound_breakdown(const Simulator& simulator,
                               const ir::Graph& graph);

}  // namespace cimtpu::sim
