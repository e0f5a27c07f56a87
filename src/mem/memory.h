#pragma once
// Two-level on-chip memory hierarchy plus main memory, following TPUv4i:
//
//   HBM (8 GB, 614 GB/s) <-> CMEM (128 MiB SRAM, via OCI) <-> VMEM (16 MiB)
//
// Unlike prior CIM simulators, the paper's model (and ours) keeps this
// two-level on-chip hierarchy (Sec. III-A).  The cost model exposes
// per-level access energies; transfer times follow from the spec's
// bandwidths (mapping::StreamingPlan::memory_time).  Double buffering /
// memory coalescing decisions live in the mapping engine and are
// expressed here only as overlap arithmetic.

#include <string>

#include "common/units.h"
#include "tech/energy_model.h"

namespace cimtpu::mem {

/// Static description of one memory level.
struct MemoryLevelSpec {
  std::string name;
  Bytes capacity = 0;
  BytesPerSecond bandwidth = 0;
};

/// Chip-level memory system specification (Table I defaults).
struct MemorySystemSpec {
  MemoryLevelSpec vmem{"VMEM", 16 * MiB, 8.0 * 1024 * GBps};
  MemoryLevelSpec cmem{"CMEM", 128 * MiB, 1.5 * 1024 * GBps};  // OCI bandwidth
  MemoryLevelSpec hbm{"HBM", 8 * GiB, 614 * GBps};

  /// Validates capacities/bandwidths; throws ConfigError on nonsense.
  void validate() const;
};

/// Runtime memory-cost model bound to a technology node.
class MemorySystem {
 public:
  MemorySystem(MemorySystemSpec spec, const tech::EnergyModel& energy);

  const MemorySystemSpec& spec() const { return spec_; }

  /// Per-byte access energy of one level.
  Joules vmem_energy(Bytes bytes) const;
  Joules cmem_energy(Bytes bytes) const;
  Joules hbm_energy(Bytes bytes) const;

 private:
  MemorySystemSpec spec_;
  const tech::EnergyModel* energy_;  // non-owning; chips outlive the model
};

/// Overlap arithmetic for double-buffered pipelines: total time of a
/// pipeline whose compute takes `compute` and whose (overlappable) memory
/// traffic takes `memory`, given `stages` pipeline stages.  With double
/// buffering the steady state is max(compute, memory); the first tile's
/// fill is exposed.
Seconds overlap_double_buffered(Seconds compute, Seconds memory, double tiles);

}  // namespace cimtpu::mem
