#pragma once
// Component energy model: converts the 22 nm calibration constants into
// per-event energies at the configured technology node.

#include "common/units.h"
#include "ir/dtype.h"
#include "tech/calibration.h"
#include "tech/technology.h"

namespace cimtpu::tech {

/// Per-event energies for one chip at a given technology node.  All values
/// are joules per the unit named in the accessor.  Instances are cheap value
/// objects; chips construct one at configuration time.
class EnergyModel {
 public:
  explicit EnergyModel(const TechnologyNode& node);

  const TechnologyNode& node() const { return node_; }

  // --- Matrix-unit compute events -------------------------------------------
  /// Energy of one useful MAC in the digital systolic array.
  Joules digital_mac(ir::DType dtype) const;
  /// Energy of one useful MAC in a CIM macro.
  Joules cim_mac(ir::DType dtype) const;
  /// Energy burned by one idle PE slot during one busy cycle (digital).
  Joules digital_bubble_slot(ir::DType dtype) const;
  /// Energy burned by one clock-gated CIM bank-slot during one busy cycle.
  Joules cim_idle_slot(ir::DType dtype) const;
  /// Energy to load one weight byte through the systolic array.
  Joules digital_weight_load_per_byte() const;
  /// Energy to write one weight byte into CIM bitcells via weight I/O.
  Joules cim_weight_write_per_byte() const;

  // --- Memory events (per byte moved) ---------------------------------------
  Joules vmem_per_byte() const;
  Joules cmem_per_byte() const;
  Joules hbm_per_byte() const;
  Joules ici_per_byte() const;

  // --- Vector unit -----------------------------------------------------------
  Joules vpu_per_op() const;

  // --- Leakage power densities (per mm^2 of block area at this node) --------
  Watts logic_leakage_per_mm2() const;
  Watts cim_leakage_per_mm2() const;

 private:
  Joules scaled(Joules at_22nm) const { return at_22nm * node_.energy_scale; }

  TechnologyNode node_;
};

/// Multiplier applied to the INT8 MAC energy for the given dtype.
double dtype_energy_factor_digital(ir::DType dtype);
double dtype_energy_factor_cim(ir::DType dtype);

}  // namespace cimtpu::tech
