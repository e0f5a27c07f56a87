#include "tech/energy_model.h"

namespace cimtpu::tech {

double dtype_energy_factor_digital(ir::DType dtype) {
  switch (dtype) {
    case ir::DType::kInt4:
      // Narrower multiplier; operand movement dominates, so the saving is
      // sub-quadratic.
      return 0.55;
    case ir::DType::kInt8:
      return 1.0;
    case ir::DType::kBf16:
      return cal::kDigitalBf16EnergyFactor;
    case ir::DType::kFp32:
      // FP32 MACs run at quarter rate on MXU-class hardware; energy per MAC
      // roughly doubles again over BF16.
      return 2.0 * cal::kDigitalBf16EnergyFactor;
  }
  return 1.0;
}

double dtype_energy_factor_cim(ir::DType dtype) {
  switch (dtype) {
    case ir::DType::kInt4:
      // Half the bit-serial input planes; the CIM macros the paper cites
      // ([8]) are natively INT4-efficient.
      return 0.45;
    case ir::DType::kInt8:
      return 1.0;
    case ir::DType::kBf16:
      return cal::kCimBf16EnergyFactor;
    case ir::DType::kFp32:
      return 2.0 * cal::kCimBf16EnergyFactor;
  }
  return 1.0;
}

EnergyModel::EnergyModel(const TechnologyNode& node) : node_(node) {}

Joules EnergyModel::digital_mac(ir::DType dtype) const {
  return scaled(cal::kDigitalMacEnergyInt8 * dtype_energy_factor_digital(dtype));
}

Joules EnergyModel::cim_mac(ir::DType dtype) const {
  return scaled(cal::kCimMacEnergyInt8 * dtype_energy_factor_cim(dtype));
}

Joules EnergyModel::digital_bubble_slot(ir::DType dtype) const {
  return digital_mac(dtype) * cal::kDigitalBubbleActivity;
}

Joules EnergyModel::cim_idle_slot(ir::DType dtype) const {
  return cim_mac(dtype) * cal::kCimBubbleActivity;
}

Joules EnergyModel::digital_weight_load_per_byte() const {
  return scaled(cal::kDigitalWeightHopEnergy * cal::kDigitalWeightLoadHops);
}

Joules EnergyModel::cim_weight_write_per_byte() const {
  return scaled(cal::kCimWeightWriteEnergy);
}

Joules EnergyModel::vmem_per_byte() const { return scaled(cal::kVmemEnergyPerByte); }

Joules EnergyModel::cmem_per_byte() const { return scaled(cal::kCmemEnergyPerByte); }

Joules EnergyModel::hbm_per_byte() const {
  // DRAM interface energy is dominated by I/O and the DRAM die; it does not
  // scale with the logic node.
  return cal::kHbmEnergyPerByte;
}

Joules EnergyModel::ici_per_byte() const {
  // SerDes energy likewise scales only weakly with node.
  return cal::kIciEnergyPerByte;
}

Joules EnergyModel::vpu_per_op() const { return scaled(cal::kVpuEnergyPerOp); }

Watts EnergyModel::logic_leakage_per_mm2() const {
  return cal::kLogicLeakagePerMm2 * node_.leakage_scale;
}

Watts EnergyModel::cim_leakage_per_mm2() const {
  return cal::kCimLeakagePerMm2 * node_.leakage_scale;
}

}  // namespace cimtpu::tech
