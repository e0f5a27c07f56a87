#pragma once
// Deployment capacity planning: how many chips does a model need?
//
// GPT3-30B INT8 weights (29.6 GB) exceed one TPUv4i's 8 GB of HBM — the
// reason the paper's multi-device section exists.  This planner computes
// the minimum pipeline depth from weight + KV-cache footprints and flags
// infeasible single-chip deployments before the simulator is asked to
// produce meaningless numbers for them.

#include <cstdint>

#include "arch/tpu_config.h"
#include "models/transformer.h"

namespace cimtpu::parallel {

struct CapacityPlan {
  Bytes weight_bytes = 0;        ///< whole-stack weights (+ embeddings)
  Bytes kv_bytes = 0;            ///< whole-stack KV cache at max length
  Bytes per_chip_available = 0;  ///< HBM minus working-set reserve
  int min_pipeline_stages = 1;   ///< chips needed to hold weights + KV
};

/// Share of each chip's HBM reserved for activations and double buffers.
inline constexpr double kHbmReserveFraction = 0.10;
static_assert(kHbmReserveFraction >= 0 && kHbmReserveFraction < 1.0,
              "the HBM reserve must be in [0, 1)");

/// Plans capacity for serving `model` at the given batch and maximum
/// sequence length on chips described by `chip_config`, with
/// kHbmReserveFraction of HBM held back.
CapacityPlan plan_capacity(const arch::TpuChipConfig& chip_config,
                           const models::TransformerConfig& model,
                           std::int64_t batch, std::int64_t max_seq_len);

}  // namespace cimtpu::parallel
