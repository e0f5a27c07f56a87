#pragma once
// CIM-MXU: a systolic grid of CIM cores replacing the digital MXU
// (paper Sec. III-B, Fig. 4).
//
// Timing model for one [m, k] x [k, n] instance on a Gr x Gc grid of
// R x C CIM cores:
//   * the stationary operand is tiled into ceil(k/R) * ceil(n/C) core-sized
//     tiles; `instances` independent GEMMs multiply the task count;
//   * the mapping engine schedules tasks onto the Gr*Gc cores in rounds
//     (output-stationary; PSUM buffers accumulate partial K-sums);
//   * per round, each core streams the m input rows bit-serially at
//     kCimCoreMacsPerCycle MACs/cycle: m * R * C / rate cycles;
//   * the next round's weights are written CONCURRENTLY through each
//     core's dedicated weight I/O (kCimWeightIoBytesPerCycle per core), so
//     a round takes max(compute, weight-write); only the first round's
//     write is exposed.  This is the decisive GEMV advantage over the
//     digital array, which stalls for every weight tile;
//   * there is no fill/drain ramp — inputs broadcast to all output
//     channels within a core — but wave propagation across the grid and
//     bit-serial re-alignment add kCimComputeOverheadFraction.
//
// Energy: useful MACs at CIM per-MAC energy; read-gated idle bank slots
// burn kCimBubbleActivity of a MAC; weight writes pay SRAM write energy.

#include "systolic/matrix_unit.h"
#include "tech/calibration.h"

namespace cimtpu::cim {

struct CimMxuSpec {
  int grid_rows = 16;   ///< CIM cores per column of the systolic grid
  int grid_cols = 8;    ///< CIM cores per row of the systolic grid
  int core_rows = 128;  ///< K extent of one core's weight tile
  int core_cols = 256;  ///< N extent of one core's weight tile
  double core_macs_per_cycle = tech::cal::kCimCoreMacsPerCycle;
  /// Per core (256-bit port).
  double weight_io_bytes_per_cycle = tech::cal::kCimWeightIoBytesPerCycle;

  /// When false, weight writes serialize with computation (ablation of the
  /// simultaneous MAC + weight-update capability the paper's CIM macro
  /// provides; see `paper_figures ablation_overlap`).
  bool overlapped_weight_update = true;

  int cores() const { return grid_rows * grid_cols; }
  void validate() const;
};

class CimMxu final : public systolic::MatrixUnit {
 public:
  CimMxu(CimMxuSpec spec, const tech::EnergyModel& energy,
         const tech::AreaModel& area);

  std::string name() const override;
  double macs_per_cycle() const override;
  SquareMm area() const override;
  Watts leakage_power() const override;
  Watts peak_dynamic_power(ir::DType dtype) const override;
  Watts idle_power(ir::DType dtype) const override;
  systolic::MxuCost evaluate(const systolic::GemmWorkload& workload) const override;

 private:
  CimMxuSpec spec_;
  const tech::EnergyModel* energy_;
  SquareMm area_mm2_;
};

}  // namespace cimtpu::cim
