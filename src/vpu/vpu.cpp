#include "vpu/vpu.h"

#include <cmath>

#include "common/status.h"

namespace cimtpu::vpu {

void VpuSpec::validate() const {
  CIMTPU_CONFIG_CHECK(sublanes > 0 && lanes > 0,
                      "VPU lane counts must be positive");
  CIMTPU_CONFIG_CHECK(ops_per_lane_per_cycle > 0,
                      "VPU issue rate must be positive");
}

Vpu::Vpu(VpuSpec spec, const tech::EnergyModel& energy,
         const tech::AreaModel& area)
    : spec_(spec), energy_(&energy) {
  spec_.validate();
  area_mm2_ = area.vpu(spec_.total_lanes());
}

Watts Vpu::leakage_power() const {
  return area_mm2_ * energy_->logic_leakage_per_mm2();
}

VpuCost Vpu::evaluate(const ir::OpShape& op) const {
  CIMTPU_CHECK_MSG(!op.is_matmul(), "matmul op routed to the VPU");
  VpuCost cost;
  cost.ops = op.flops();

  switch (op.kind) {
    case ir::OpKind::kSoftmax:
    case ir::OpKind::kLayerNorm: {
      // Row ops execute pass-structured: each pass touches every element
      // once at the vector width; rows narrower than the vector width
      // waste lanes (common in decode where rows = batch).
      // Both run as two element-visiting passes.  Softmax uses the
      // online-normalizer algorithm (Milakov & Gimelshein 2018, the one
      // the paper adopts): a fused pass keeps a running max and a running
      // sum rescaled on the fly, then one normalize pass, instead of the
      // naive max / exp-sum / normalize three.  Layernorm: moments, then
      // normalize.
      const double passes = 2.0;
      const double ops_per_elem_pass =
          op.flops() / (static_cast<double>(op.rows) * op.cols * passes);
      // Rows map to sublanes, columns to lanes; narrow rows/short columns
      // strand lanes (decode rows = batch << 8*128 wastes most of the VPU).
      const double col_chunks =
          std::ceil(static_cast<double>(op.cols) / spec_.lanes);
      const double row_groups =
          std::ceil(static_cast<double>(op.rows) / spec_.sublanes);
      cost.busy_cycles = passes * row_groups * col_chunks *
                         ops_per_elem_pass / spec_.ops_per_lane_per_cycle;
      break;
    }
    case ir::OpKind::kGelu:
    case ir::OpKind::kElementwise:
      cost.busy_cycles =
          std::ceil(op.flops() / ops_per_cycle());
      break;
    case ir::OpKind::kEmbeddingLookup:
    case ir::OpKind::kDataMovement:
      // Pure data movement: one element per lane per cycle through the VPU
      // register path (the memory cost dominates and is modeled by the
      // memory system).
      cost.busy_cycles = std::ceil(
          op.moving_bytes() / ir::dtype_bytes(op.dtype) / ops_per_cycle());
      break;
    case ir::OpKind::kMatmul:
      throw UnsupportedError("matmul on VPU");
  }

  cost.busy_energy = cost.ops * energy_->vpu_per_op();
  return cost;
}

}  // namespace cimtpu::vpu
