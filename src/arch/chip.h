#pragma once
// A fully-instantiated TPU chip: technology-bound cost models for every
// component, ready for the simulator.

#include <memory>
#include <vector>

#include "arch/tpu_config.h"
#include "mem/link.h"
#include "mem/memory.h"
#include "systolic/matrix_unit.h"
#include "tech/area_model.h"
#include "tech/energy_model.h"
#include "vpu/vpu.h"

namespace cimtpu::arch {

/// Area breakdown of the chip's modeled blocks.
struct ChipAreaReport {
  SquareMm mxus = 0;
  SquareMm vpu = 0;
  SquareMm vmem = 0;
  SquareMm cmem = 0;
  SquareMm total() const { return mxus + vpu + vmem + cmem; }
};

class TpuChip {
 public:
  explicit TpuChip(TpuChipConfig config);

  // Non-copyable (owns models with internal pointers).
  TpuChip(const TpuChip&) = delete;
  TpuChip& operator=(const TpuChip&) = delete;

  const TpuChipConfig& config() const { return config_; }
  Hertz clock() const { return clock_; }

  const mem::MemorySystem& memory() const { return *memory_; }
  const mem::IciFabric& ici() const { return *ici_; }
  const vpu::Vpu& vpu() const { return *vpu_; }

  /// The prototype matrix unit (all MXUs on a chip are identical).
  const systolic::MatrixUnit& mxu() const { return *mxu_; }
  int mxu_count() const { return config_.mxu_count; }

  /// Peak matrix throughput (ops/s) of the whole chip.
  double peak_ops_per_second() const {
    return mxu_->peak_ops_per_second(clock_) * mxu_count();
  }

  ChipAreaReport area_report() const;

 private:
  TpuChipConfig config_;
  Hertz clock_;
  std::unique_ptr<tech::EnergyModel> energy_;
  std::unique_ptr<tech::AreaModel> area_;
  std::unique_ptr<mem::MemorySystem> memory_;
  std::unique_ptr<mem::IciFabric> ici_;
  std::unique_ptr<vpu::Vpu> vpu_;
  systolic::MatrixUnitPtr mxu_;
};

}  // namespace cimtpu::arch
