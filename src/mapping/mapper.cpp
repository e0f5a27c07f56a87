#include "mapping/mapper.h"

#include <algorithm>
#include <array>

#include "common/math_util.h"
#include "common/status.h"

namespace cimtpu::mapping {

Seconds StreamingPlan::memory_time(const mem::MemorySystemSpec& spec) const {
  // Channels run concurrently (memory coalescing + double buffering); the
  // slowest channel bounds streaming throughput.
  const Seconds hbm = hbm_bytes / spec.hbm.bandwidth;
  const Seconds cmem = cmem_bytes / spec.cmem.bandwidth;
  const Seconds vmem = vmem_bytes / spec.vmem.bandwidth;
  return std::max({hbm, cmem, vmem});
}

Joules StreamingPlan::memory_energy(const mem::MemorySystem& memory) const {
  return memory.hbm_energy(hbm_bytes) + memory.cmem_energy(cmem_bytes) +
         memory.vmem_energy(vmem_bytes);
}

Mapper::Mapper(const systolic::MatrixUnit& unit, int unit_count)
    : unit_(&unit), unit_count_(unit_count) {
  CIMTPU_CONFIG_CHECK(unit_count > 0, "mapper needs >= 1 unit");
}

namespace {

constexpr int kMaxCandidates = 4;  // one per Split

/// Fills `out` with the pruned mapspace of `op` on `unit_count` units, in
/// try order, and returns the candidate count.  Leaves unit costs unset.
int mapspace(const ir::OpShape& op, int unit_count,
             std::array<CandidateCost, kMaxCandidates>& out) {
  const int u = unit_count;
  systolic::GemmWorkload base;
  base.m = op.m;
  base.k = op.k;
  base.n = op.n;
  base.instances = op.instances;
  base.dtype = op.dtype;

  int count = 0;
  auto add = [&](Split split, const systolic::GemmWorkload& per_unit,
                 int units) {
    CandidateCost& candidate = out[static_cast<std::size_t>(count++)];
    candidate.split = split;
    candidate.units_used = units;
    candidate.per_unit = per_unit;
  };
  // Instance split: independent GEMMs round-robin across units.
  if (op.instances > 1) {
    systolic::GemmWorkload w = base;
    const int units = static_cast<int>(
        std::min<std::int64_t>(u, op.instances));
    w.instances = ceil_div<std::int64_t>(op.instances, units);
    add(Split::kInstance, w, units);
  }
  // N split: each unit owns a column slab of every instance.
  if (op.n > 1) {
    systolic::GemmWorkload w = base;
    const int units = static_cast<int>(std::min<std::int64_t>(u, op.n));
    w.n = ceil_div<std::int64_t>(op.n, units);
    add(Split::kN, w, units);
  }
  // M split: each unit owns a row slab (weights replicated).
  if (op.m > 1) {
    systolic::GemmWorkload w = base;
    const int units = static_cast<int>(std::min<std::int64_t>(u, op.m));
    w.m = ceil_div<std::int64_t>(op.m, units);
    add(Split::kM, w, units);
  }
  // Single unit (fallback; also the best choice for tiny ops).
  add(Split::kSingle, base, 1);
  return count;
}

}  // namespace

CandidateCost Mapper::best_candidate(const ir::OpShape& op) const {
  std::array<CandidateCost, kMaxCandidates> candidates;
  const int count = mapspace(op, unit_count_, candidates);
  std::size_t best = 0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(count); ++i) {
    candidates[i].unit_cost = unit_->evaluate(candidates[i].per_unit);
    // Strict less-than: the first minimum wins a tie.
    if (candidates[i].unit_cost.busy_cycles <
        candidates[best].unit_cost.busy_cycles) {
      best = i;
    }
  }
  return candidates[best];
}

StreamingPlan Mapper::plan_streaming(const ir::OpShape& op,
                                     const mem::MemorySystemSpec& spec) {
  StreamingPlan plan;
  const Bytes vmem_working_set = spec.vmem.capacity / 2;  // double buffer

  // Effective residency: tensors declared VMEM-resident but larger than the
  // double-buffered working set spill to CMEM.
  auto effective = [&](ir::Residency declared, Bytes bytes) {
    if (declared == ir::Residency::kVmem && bytes > vmem_working_set) {
      return ir::Residency::kCmem;
    }
    return declared;
  };
  // Accumulate per-channel traffic for one tensor stream.
  auto add_stream = [&](ir::Residency residency, Bytes bytes) {
    switch (residency) {
      case ir::Residency::kHbm:
        plan.hbm_bytes += bytes;
        plan.cmem_bytes += bytes;
        plan.vmem_bytes += bytes;
        break;
      case ir::Residency::kCmem:
        plan.cmem_bytes += bytes;
        plan.vmem_bytes += bytes;
        break;
      case ir::Residency::kVmem:
        plan.vmem_bytes += bytes;
        break;
    }
  };

  if (op.is_matmul()) {
    add_stream(effective(op.stationary_residency, op.stationary_bytes()),
               op.stationary_bytes());
    add_stream(effective(op.moving_residency, op.moving_bytes()),
               op.moving_bytes());
    add_stream(effective(op.output_residency, op.output_bytes()),
               op.output_bytes());
  } else {
    // Vector ops stream input and output through VMEM (from CMEM when
    // large); embedding tables gather from HBM.
    const ir::Residency in_res =
        op.kind == ir::OpKind::kEmbeddingLookup
            ? ir::Residency::kHbm
            : effective(ir::Residency::kVmem, op.moving_bytes());
    add_stream(in_res, op.moving_bytes());
    add_stream(effective(ir::Residency::kVmem, op.output_bytes()),
               op.output_bytes());
  }

  const Bytes dominant = std::max(plan.hbm_bytes, plan.cmem_bytes);
  plan.tiles = std::max(1.0, dominant / (vmem_working_set / 2));
  return plan;
}

}  // namespace cimtpu::mapping
