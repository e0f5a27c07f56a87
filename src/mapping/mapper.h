#pragma once
// Mapping engine: decides how a matmul operator is partitioned across the
// TensorCore's MXUs and how its tensors stream through the CMEM/VMEM
// hierarchy (paper Sec. III-C, Fig. 5).
//
// The mapspace is pruned with the heuristics of LLMCompass/Timeloop-style
// mappers: only whole-dimension splits across units are considered
// (instance-, n-, and m-splits), each costed exactly with the unit's
// analytic model, and the latency-optimal candidate is kept.

#include <cstdint>

#include "ir/op.h"
#include "mem/memory.h"
#include "systolic/matrix_unit.h"

namespace cimtpu::mapping {

/// How a matmul is partitioned across units, in the order the mapper tries
/// the candidates (the first minimum wins ties).
enum class Split : std::uint8_t { kInstance, kN, kM, kSingle };

/// One costed mapping candidate, without labels: the busiest unit's
/// workload and its cost on that unit.
struct CandidateCost {
  Split split = Split::kSingle;
  int units_used = 1;
  systolic::GemmWorkload per_unit;
  systolic::MxuCost unit_cost;

  /// Busy energy summed over all participating units.
  Joules busy_energy() const { return unit_cost.busy_energy * units_used; }
};

/// Streaming plan for an op's tensors through the memory hierarchy.
struct StreamingPlan {
  Bytes hbm_bytes = 0;    ///< bytes crossing the HBM interface
  Bytes cmem_bytes = 0;   ///< bytes crossing the OCI/CMEM port
  Bytes vmem_bytes = 0;   ///< bytes crossing VMEM
  double tiles = 1;       ///< double-buffer granularity (exposure = 1/tiles)

  /// Slowest-channel streaming time.
  Seconds memory_time(const mem::MemorySystemSpec& spec) const;
  /// Total access energy over all channels.
  Joules memory_energy(const mem::MemorySystem& memory) const;
};

class Mapper {
 public:
  /// `unit` is the prototype MXU (all identical); `unit_count` how many the
  /// TensorCore has.
  Mapper(const systolic::MatrixUnit& unit, int unit_count);

  /// The latency-optimal candidate for matmul `op`: the first of the
  /// pruned mapspace (instance -> n -> m -> single) with the fewest busy
  /// cycles.  Allocates nothing; the simulator's per-op kernel calls it.
  CandidateCost best_candidate(const ir::OpShape& op) const;

  /// Builds the memory streaming plan for `op` on the given hierarchy.
  /// Tensors declared VMEM-resident that exceed half of VMEM are spilled
  /// to CMEM (the engine tiles them); the KV residency encoded in the op
  /// decides whether attention operands touch HBM.
  static StreamingPlan plan_streaming(const ir::OpShape& op,
                                      const mem::MemorySystemSpec& spec);

 private:
  const systolic::MatrixUnit* unit_;
  int unit_count_;
};

}  // namespace cimtpu::mapping
