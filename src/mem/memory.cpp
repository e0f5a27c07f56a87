#include "mem/memory.h"

#include <algorithm>

#include "common/status.h"

namespace cimtpu::mem {

void MemorySystemSpec::validate() const {
  CIMTPU_CONFIG_CHECK(vmem.capacity > 0 && vmem.bandwidth > 0,
                      "VMEM spec invalid");
  CIMTPU_CONFIG_CHECK(cmem.capacity > 0 && cmem.bandwidth > 0,
                      "CMEM spec invalid");
  CIMTPU_CONFIG_CHECK(hbm.capacity > 0 && hbm.bandwidth > 0, "HBM spec invalid");
  CIMTPU_CONFIG_CHECK(vmem.capacity <= cmem.capacity,
                      "VMEM larger than CMEM: " << vmem.capacity << " > "
                                                << cmem.capacity);
}

MemorySystem::MemorySystem(MemorySystemSpec spec,
                           const tech::EnergyModel& energy)
    : spec_(std::move(spec)), energy_(&energy) {
  spec_.validate();
}

Joules MemorySystem::vmem_energy(Bytes bytes) const {
  return bytes * energy_->vmem_per_byte();
}

Joules MemorySystem::cmem_energy(Bytes bytes) const {
  return bytes * energy_->cmem_per_byte();
}

Joules MemorySystem::hbm_energy(Bytes bytes) const {
  return bytes * energy_->hbm_per_byte();
}

Seconds overlap_double_buffered(Seconds compute, Seconds memory,
                                double tiles) {
  CIMTPU_DCHECK(tiles >= 1.0);
  // Steady state: per-tile latency is max(compute, memory) per tile; the
  // first tile's memory fill cannot be hidden.
  const Seconds per_tile_compute = compute / tiles;
  const Seconds per_tile_memory = memory / tiles;
  return per_tile_memory +
         tiles * std::max(per_tile_compute, per_tile_memory);
}

}  // namespace cimtpu::mem
