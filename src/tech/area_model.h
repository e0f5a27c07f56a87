#pragma once
// Component area model, calibrated at 22 nm from the paper's Table II and
// scaled to the configured node.

#include "common/units.h"
#include "tech/calibration.h"
#include "tech/technology.h"

namespace cimtpu::tech {

class AreaModel {
 public:
  explicit AreaModel(const TechnologyNode& node);


  /// Area of a digital systolic array with `rows * cols` MAC PEs.
  /// Calibrated so a 128x128 array hits Table II's 0.648 TOPS/mm².
  SquareMm digital_array(int rows, int cols) const;

  /// Area of one CIM core (`cim_rows` x `cim_cols` bitcell positions plus
  /// readout, adder tree, shift-accumulator, PSUM buffer and control).
  /// Calibrated so a 16x8 grid of 128x256 cores hits Table II's
  /// 1.31 TOPS/mm².
  SquareMm cim_core(int cim_rows, int cim_cols) const;

  /// Area of a CIM-MXU: a `grid_rows` x `grid_cols` grid of CIM cores plus
  /// systolic interconnect overhead.
  SquareMm cim_mxu(int grid_rows, int grid_cols, int cim_rows,
                   int cim_cols) const;

  /// Area of an on-chip SRAM buffer of the given capacity.
  SquareMm sram(Bytes capacity) const;

  /// Area of a VPU with the given total lane count.
  SquareMm vpu(int lanes) const;

 private:
  SquareMm scaled(SquareMm at_22nm) const { return at_22nm * node_.area_scale; }

  TechnologyNode node_;
};

/// 22 nm area of one digital MAC PE (multiplier + accumulator + pipeline
/// registers), derived from the Table II anchor.
SquareMm digital_mac_area_22nm();

/// 22 nm area of one CIM bitcell position amortized with its share of the
/// macro periphery, derived from the Table II anchor.
SquareMm cim_cell_area_22nm();

}  // namespace cimtpu::tech
