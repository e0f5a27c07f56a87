#include "models/llm.h"

#include "common/status.h"

namespace cimtpu::models {
namespace {

OpShapeTemplate weight_gemm(LayerDim m, std::int64_t k, std::int64_t n,
                            ir::DType dtype) {
  OpShapeTemplate op;
  op.kind = ir::OpKind::kMatmul;
  op.dtype = dtype;
  op.m = m;
  op.k = {k};
  op.n = {n};
  return op;
}

OpShapeTemplate attention_gemm(LayerDim instances, LayerDim m, LayerDim k,
                               LayerDim n, ir::DType dtype) {
  OpShapeTemplate op;
  op.kind = ir::OpKind::kMatmul;
  op.dtype = dtype;
  op.instances = instances;
  op.m = m;
  op.k = k;
  op.n = n;
  op.stationary_shared = false;
  op.kv_operand = true;
  return op;
}

// Softmax / layer norm.
OpShapeTemplate row_op(ir::OpKind kind, LayerDim rows, LayerDim cols,
                       ir::DType dtype) {
  OpShapeTemplate op;
  op.kind = kind;
  op.dtype = dtype;
  op.rows = rows;
  op.cols = cols;
  return op;
}

// GeLU / elementwise / data movement.
OpShapeTemplate element_op(ir::OpKind kind, LayerDim elems, ir::DType dtype) {
  OpShapeTemplate op;
  op.kind = kind;
  op.dtype = dtype;
  op.elems = elems;
  return op;
}

ir::Graph instantiate(std::string name,
                      const std::vector<LayerOpTemplate>& ops,
                      std::int64_t batch, std::int64_t len,
                      ir::Residency kv_residency) {
  ir::Graph graph(std::move(name));
  for (const LayerOpTemplate& op_template : ops) {
    ir::Op op;
    static_cast<ir::OpShape&>(op) =
        op_template.shape.at(batch, len, kv_residency);
    op.name = op_template.name;
    op.group = op_template.group;
    graph.add(std::move(op));
  }
  return graph;
}

}  // namespace

bool OpShapeTemplate::depends_on_len() const {
  return kv_operand || instances.per_len || m.per_len || k.per_len ||
         n.per_len || rows.per_len || cols.per_len || elems.per_len;
}

bool OpShapeTemplate::operator==(const OpShapeTemplate& other) const {
  return kind == other.kind && dtype == other.dtype &&
         instances == other.instances && m == other.m && k == other.k &&
         n == other.n && rows == other.rows && cols == other.cols &&
         elems == other.elems && ops_per_element == other.ops_per_element &&
         stationary_shared == other.stationary_shared &&
         kv_operand == other.kv_operand;
}

ir::OpShape OpShapeTemplate::at(std::int64_t batch, std::int64_t len,
                                ir::Residency kv_residency) const {
  ir::OpShape op;
  op.kind = kind;
  op.dtype = dtype;
  op.instances = instances.at(batch, len);
  op.m = m.at(batch, len);
  op.k = k.at(batch, len);
  op.n = n.at(batch, len);
  op.stationary_shared = stationary_shared;
  if (kv_operand) op.stationary_residency = kv_residency;
  op.rows = rows.at(batch, len);
  op.cols = cols.at(batch, len);
  op.elems = elems.at(batch, len);
  op.ops_per_element = ops_per_element;
  return op;
}

std::vector<LayerOpTemplate> layer_template(const TransformerConfig& config,
                                            LayerStage stage) {
  const bool prefill = stage == LayerStage::kPrefill;
  const ir::DType dtype = config.dtype;
  const std::int64_t d_model = config.d_model;
  const std::int64_t d_ff = config.d_ff;
  // `width` values per token row: batch * len rows in prefill (the whole
  // prompt at once), batch rows in decode (one token per sequence).
  auto tokens = [&](std::int64_t width) {
    return LayerDim{width, /*per_batch=*/true, /*per_len=*/prefill};
  };
  const LayerDim rows = tokens(1);
  // Attention runs one GEMM per (sequence, head): every (batch, head) has
  // its own K — the stationary operand cannot be shared, which is what
  // starves the digital systolic array in decode (one query row).
  const LayerDim heads{config.num_heads, /*per_batch=*/true};
  const LayerDim q_rows{1, /*per_batch=*/false, /*per_len=*/prefill};
  const LayerDim kv_len{1, /*per_batch=*/false, /*per_len=*/true};
  const LayerDim d_head{config.d_head()};

  std::vector<LayerOpTemplate> ops;
  ops.reserve(15);
  auto add = [&](const char* name, const char* group,
                 const OpShapeTemplate& shape) {
    ops.push_back({name, group, shape});
  };
  add("ln1", "LayerNorm",
      row_op(ir::OpKind::kLayerNorm, rows, {d_model}, dtype));
  add("qkv_proj", "QKV Gen", weight_gemm(rows, d_model, 3 * d_model, dtype));
  // This step's K/V rows go to the cache: the whole prompt's in prefill,
  // one appended row per sequence in decode.
  add(prefill ? "kv_store" : "kv_append", "Attention",
      element_op(ir::OpKind::kDataMovement, tokens(2 * d_model), dtype));
  add("attn_qk", "Attention",
      attention_gemm(heads, q_rows, d_head, kv_len, dtype));
  add("attn_softmax", "Attention",
      row_op(ir::OpKind::kSoftmax, tokens(config.num_heads), kv_len, dtype));
  add("attn_sv", "Attention",
      attention_gemm(heads, q_rows, kv_len, d_head, dtype));
  add("out_proj", "Proj.", weight_gemm(rows, d_model, d_model, dtype));
  add("residual1", "LayerNorm",
      element_op(ir::OpKind::kElementwise, tokens(d_model), dtype));
  add("ln2", "LayerNorm",
      row_op(ir::OpKind::kLayerNorm, rows, {d_model}, dtype));
  if (config.ffn == FfnKind::kSwiGlu) {
    add("ffn_gate", "FFN1", weight_gemm(rows, d_model, d_ff, dtype));
    add("ffn_up", "FFN1", weight_gemm(rows, d_model, d_ff, dtype));
    // SiLU(gate) * up
    add("ffn_silu", "GeLU", element_op(ir::OpKind::kGelu, tokens(d_ff), dtype));
    add("ffn_gate_mul", "GeLU",
        element_op(ir::OpKind::kElementwise, tokens(d_ff), dtype));
    add("ffn_down", "FFN2", weight_gemm(rows, d_ff, d_model, dtype));
  } else {
    add("ffn1", "FFN1", weight_gemm(rows, d_model, d_ff, dtype));
    add("gelu", "GeLU", element_op(ir::OpKind::kGelu, tokens(d_ff), dtype));
    add("ffn2", "FFN2", weight_gemm(rows, d_ff, d_model, dtype));
  }
  add("residual2", "LayerNorm",
      element_op(ir::OpKind::kElementwise, tokens(d_model), dtype));
  return ops;
}

ir::Residency choose_kv_residency(Bytes kv_operand_bytes, Bytes cmem_capacity,
                                  Bytes reserved_bytes) {
  return kv_operand_bytes + reserved_bytes <= cmem_capacity
             ? ir::Residency::kCmem
             : ir::Residency::kHbm;
}

ir::Graph build_prefill_layer(const TransformerConfig& config,
                              std::int64_t batch, std::int64_t seq_len,
                              ir::Residency kv_residency) {
  config.validate();
  CIMTPU_CONFIG_CHECK(batch > 0 && seq_len > 0,
                      "prefill needs positive batch/seq_len");
  return instantiate(config.name + "-prefill-layer",
                     layer_template(config, LayerStage::kPrefill), batch,
                     seq_len, kv_residency);
}

ir::Graph build_decode_layer(const TransformerConfig& config,
                             std::int64_t batch, std::int64_t kv_len,
                             ir::Residency kv_residency) {
  config.validate();
  CIMTPU_CONFIG_CHECK(batch > 0 && kv_len > 0,
                      "decode needs positive batch/kv_len");
  return instantiate(config.name + "-decode-layer",
                     layer_template(config, LayerStage::kDecode), batch,
                     kv_len, kv_residency);
}

ir::Graph build_token_embedding(const TransformerConfig& config,
                                std::int64_t tokens) {
  config.validate();
  ir::Graph graph(config.name + "-embedding");
  graph.add(ir::make_embedding_lookup("token_embed", "Token Embedding",
                                      tokens, config.d_model, config.dtype));
  return graph;
}

ir::Graph build_prediction_head(const TransformerConfig& config,
                                std::int64_t rows) {
  config.validate();
  CIMTPU_CONFIG_CHECK(config.vocab_size > 0,
                      "model '" << config.name << "' has no vocab for a head");
  ir::Graph graph(config.name + "-head");
  graph.add(ir::make_layer_norm("final_ln", "Prediction Head", rows,
                                config.d_model, config.dtype));
  graph.add(ir::make_weight_gemm("lm_head", "Prediction Head", rows,
                                 config.d_model, config.vocab_size,
                                 config.dtype));
  return graph;
}

}  // namespace cimtpu::models
