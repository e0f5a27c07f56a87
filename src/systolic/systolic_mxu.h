#pragma once
// Baseline digital MXU: a weight-stationary systolic array in the style of
// TPUv4i's 128x128 MXU, costed with a SCALE-Sim-like analytic model
// (Samajdar et al., ISPASS'20 — the paper's own baseline methodology).
//
// Timing model for one [m, k] x [k, n] instance on an R x C array:
//   * the weight matrix is tiled into ceil(k/R) * ceil(n/C) tiles;
//   * each tile's weights are shifted in through the array over
//     R * dtype_bytes cycles and CANNOT overlap compute (the vertical
//     datapath is shared with partial sums);
//   * the m input rows then stream through (m cycles in steady state);
//   * the fill/drain ramp (R + C - 2 cycles) is paid once per instance —
//     consecutive tiles of the same instance pipeline their streams.
//
// Energy model: useful MACs at full per-MAC energy; idle PE slots during
// busy cycles burn kDigitalBubbleActivity of a MAC (clock + skew registers
// are not gated); weights pay a per-hop register-shift energy.

#include "systolic/matrix_unit.h"

namespace cimtpu::systolic {

/// Systolic dataflow (SCALE-Sim taxonomy).  TPUv4i's MXU is
/// weight-stationary; output-stationary is provided for dataflow ablations
/// (the CIM-MXU itself is output-stationary at the grid level).
enum class Dataflow {
  kWeightStationary,  ///< weights resident; inputs stream, psums ripple
  kOutputStationary,  ///< outputs resident; inputs AND weights stream
};

struct SystolicMxuSpec {
  int rows = 128;  ///< contraction (K) extent of the PE array (WS)
  int cols = 128;  ///< output (N) extent of the PE array
  Dataflow dataflow = Dataflow::kWeightStationary;

  void validate() const;
};

class SystolicMxu final : public MatrixUnit {
 public:
  SystolicMxu(SystolicMxuSpec spec, const tech::EnergyModel& energy,
              const tech::AreaModel& area);

  std::string name() const override;
  double macs_per_cycle() const override;
  SquareMm area() const override;
  Watts leakage_power() const override;
  Watts peak_dynamic_power(ir::DType dtype) const override;
  Watts idle_power(ir::DType dtype) const override;
  MxuCost evaluate(const GemmWorkload& workload) const override;

 private:
  MxuCost evaluate_weight_stationary(const GemmWorkload& workload) const;
  MxuCost evaluate_output_stationary(const GemmWorkload& workload) const;
  /// Shared energy accounting from the computed cycle/traffic figures.
  void fill_energy(const GemmWorkload& workload, MxuCost& cost) const;

  SystolicMxuSpec spec_;
  const tech::EnergyModel* energy_;
  SquareMm area_mm2_;
};

}  // namespace cimtpu::systolic
