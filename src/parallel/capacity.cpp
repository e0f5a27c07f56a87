#include "parallel/capacity.h"

#include <cmath>

#include "common/status.h"

namespace cimtpu::parallel {

CapacityPlan plan_capacity(const arch::TpuChipConfig& chip_config,
                           const models::TransformerConfig& model,
                           std::int64_t batch, std::int64_t max_seq_len) {
  model.validate();
  CIMTPU_CONFIG_CHECK(batch > 0 && max_seq_len > 0,
                      "capacity planning needs positive batch/seq");

  CapacityPlan plan;
  plan.weight_bytes = model.stack_weight_bytes();
  if (model.vocab_size > 0) {
    // Embedding table + tied LM head.
    plan.weight_bytes += static_cast<double>(model.vocab_size) *
                         model.d_model * ir::dtype_bytes(model.dtype);
  }
  plan.kv_bytes = models::kv_cache_bytes_per_layer(model, batch, max_seq_len) *
                  static_cast<double>(model.num_layers);
  plan.per_chip_available =
      chip_config.memory.hbm.capacity * (1.0 - kHbmReserveFraction);

  const Bytes total = plan.weight_bytes + plan.kv_bytes;
  plan.min_pipeline_stages = static_cast<int>(
      std::ceil(total / plan.per_chip_available));
  if (plan.min_pipeline_stages < 1) plan.min_pipeline_stages = 1;
  CIMTPU_CONFIG_CHECK(
      plan.min_pipeline_stages <= model.num_layers,
      "model '" << model.name << "' needs " << plan.min_pipeline_stages
                << " chips but has only " << model.num_layers
                << " layers to split");
  return plan;
}

}  // namespace cimtpu::parallel
