#include "arch/chip.h"

#include "cim/cim_mxu.h"
#include "systolic/systolic_mxu.h"

namespace cimtpu::arch {

TpuChip::TpuChip(TpuChipConfig config) : config_(std::move(config)) {
  config_.validate();
  tech::TechnologyNode node = tech::node_by_name(config_.technology);
  clock_ = config_.effective_clock();
  // The node drives energy/area scaling; pin its nominal clock to the
  // chip's effective clock so power integrals are consistent.
  node.nominal_clock = clock_;
  energy_ = std::make_unique<tech::EnergyModel>(node);
  area_ = std::make_unique<tech::AreaModel>(node);
  memory_ = std::make_unique<mem::MemorySystem>(config_.memory, *energy_);
  ici_ = std::make_unique<mem::IciFabric>(config_.ici, *energy_);
  vpu_ = std::make_unique<vpu::Vpu>(config_.vpu, *energy_, *area_);
  if (config_.mxu_kind == MxuKind::kDigitalSystolic) {
    mxu_ = std::make_unique<systolic::SystolicMxu>(config_.systolic, *energy_,
                                                   *area_);
  } else {
    mxu_ = std::make_unique<cim::CimMxu>(config_.cim, *energy_, *area_);
  }
}

ChipAreaReport TpuChip::area_report() const {
  ChipAreaReport report;
  report.mxus = mxu_->area() * mxu_count();
  report.vpu = vpu_->area();
  report.vmem = area_->sram(config_.memory.vmem.capacity);
  report.cmem = area_->sram(config_.memory.cmem.capacity);
  return report;
}

}  // namespace cimtpu::arch
