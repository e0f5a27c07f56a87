#pragma once
// LLM inference workload builders.
//
// LLM inference has two stages with very different characteristics
// (paper Sec. II-A):
//   * Prefilling: the whole prompt is processed at once — large
//     compute-bound GEMMs, KV cache written.
//   * Decoding: one token per step — GEMV-shaped work, memory-bound, KV
//     cache read and appended.
//
// Each stage's layer is described once, as a list of op templates whose
// dimensions are functions of the step shape (batch, len).  The builders
// instantiate that template into one named ir::Graph per Transformer
// layer; the simulator multiplies by layer count (all layers are
// identical) or walks decode steps with a growing KV length.
// sim::LayerPlan evaluates the same template without building graphs.

#include <cstdint>
#include <vector>

#include "ir/graph.h"
#include "models/transformer.h"

namespace cimtpu::models {

/// The two stages of LLM inference.  A layer's step shape is (batch, len):
/// len is the prompt length in prefill and the KV length in decode.
enum class LayerStage { kPrefill, kDecode };

/// One op dimension as a function of the step shape:
/// coeff x (batch if per_batch) x (len if per_len).
struct LayerDim {
  std::int64_t coeff = 0;
  bool per_batch = false;
  bool per_len = false;

  std::int64_t at(std::int64_t batch, std::int64_t len) const {
    return coeff * (per_batch ? batch : 1) * (per_len ? len : 1);
  }
  bool operator==(const LayerDim& other) const {
    return coeff == other.coeff && per_batch == other.per_batch &&
           per_len == other.per_len;
  }
};

/// The shape of one layer op, every dimension a LayerDim.  Dimensions a
/// kind does not use stay zero, as in ir::OpShape.
struct OpShapeTemplate {
  ir::OpKind kind = ir::OpKind::kMatmul;
  ir::DType dtype = ir::DType::kInt8;
  LayerDim instances{1};
  LayerDim m, k, n;
  LayerDim rows, cols, elems;
  double ops_per_element = 1.0;
  bool stationary_shared = true;
  /// The stationary operand is the KV cache, whose residency is chosen per
  /// step shape (attention GEMMs); otherwise weights stream from HBM.
  bool kv_operand = false;

  /// True when the op's cost can change with len at a fixed batch: a
  /// dimension scales with len, or the op reads the KV cache.
  bool depends_on_len() const;

  /// The op's shape at (batch, len) with the KV cache at `kv_residency`.
  ir::OpShape at(std::int64_t batch, std::int64_t len,
                 ir::Residency kv_residency) const;

  /// Equal templates give equal shapes, hence equal costs, at every step.
  bool operator==(const OpShapeTemplate& other) const;
};

/// One op of the layer template: its shape template and its labels.
struct LayerOpTemplate {
  const char* name;
  const char* group;
  OpShapeTemplate shape;
};

/// The ops of one Transformer layer in `stage`, in execution order.
std::vector<LayerOpTemplate> layer_template(const TransformerConfig& config,
                                            LayerStage stage);

/// Residency chosen for the K/V operands of attention GEMMs given the
/// available CMEM.  The KV cache lives in CMEM when one operand (K or V)
/// fits alongside `reserved_bytes` of working tiles; otherwise it streams
/// from HBM (GPT3-30B at batch 8 exceeds CMEM — see `paper_figures
/// ablation_kv_residency`).
ir::Residency choose_kv_residency(Bytes kv_operand_bytes, Bytes cmem_capacity,
                                  Bytes reserved_bytes);

/// One Transformer layer in the Prefilling stage: batch*seq_len token rows.
ir::Graph build_prefill_layer(const TransformerConfig& config,
                              std::int64_t batch, std::int64_t seq_len,
                              ir::Residency kv_residency);

/// One Transformer layer in the Decoding stage at KV length `kv_len`
/// (the step that emits token kv_len - input_len + 1).
ir::Graph build_decode_layer(const TransformerConfig& config,
                             std::int64_t batch, std::int64_t kv_len,
                             ir::Residency kv_residency);

/// Token embedding for `tokens` total tokens (gather from the vocab table).
ir::Graph build_token_embedding(const TransformerConfig& config,
                                std::int64_t tokens);

/// Prediction head: project `rows` token positions onto the vocabulary.
ir::Graph build_prediction_head(const TransformerConfig& config,
                                std::int64_t rows);

}  // namespace cimtpu::models
