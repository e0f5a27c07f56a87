#pragma once
// Vector processing unit cost model.
//
// TPUv4i's VPU is an 8x128-lane SIMD engine (Table I: vector width 8x128).
// It executes the non-matrix operators: Softmax (online normalizer),
// LayerNorm, GeLU (tanh approximation), elementwise maps, and embedding
// gathers.  The VPU is IDENTICAL in the baseline and CIM designs — the
// paper replaces only the MXUs — so its model is shared.

#include "common/units.h"
#include "ir/op.h"
#include "tech/area_model.h"
#include "tech/energy_model.h"

namespace cimtpu::vpu {

struct VpuSpec {
  int sublanes = 8;
  int lanes = 128;
  double ops_per_lane_per_cycle = 1.0;

  int total_lanes() const { return sublanes * lanes; }
  void validate() const;
};

/// Cost of one vector op on the VPU.
struct VpuCost {
  Cycles busy_cycles = 0;
  double ops = 0;
  Joules busy_energy = 0;
};

class Vpu {
 public:
  Vpu(VpuSpec spec, const tech::EnergyModel& energy,
      const tech::AreaModel& area);


  double ops_per_cycle() const {
    return spec_.total_lanes() * spec_.ops_per_lane_per_cycle;
  }

  SquareMm area() const { return area_mm2_; }
  Watts leakage_power() const;

  /// Costs a non-matmul op.  Throws for matmul kinds.
  VpuCost evaluate(const ir::OpShape& op) const;

 private:
  VpuSpec spec_;
  const tech::EnergyModel* energy_;
  SquareMm area_mm2_;
};

}  // namespace cimtpu::vpu
