// Model zoo and workload-builder tests: Table III configurations, graph
// structure, and closed-form MAC/byte accounting.

#include <gtest/gtest.h>

#include <algorithm>

#include "models/dit.h"
#include "models/llm.h"
#include "models/model_zoo.h"

namespace cimtpu::models {
namespace {

bool graph_has_op(const ir::Graph& graph, const std::string& name) {
  return std::any_of(graph.ops().begin(), graph.ops().end(),
                     [&](const ir::Op& op) { return op.name == name; });
}

const ir::Op& find_op(const ir::Graph& graph, const std::string& name) {
  for (const ir::Op& op : graph.ops()) {
    if (op.name == name) return op;
  }
  throw std::runtime_error("op not found: " + name);
}

double layer_macs(const ir::Graph& graph) {
  double macs = 0.0;
  for (const ir::Op& op : graph.ops()) macs += op.macs();
  return macs;
}

// --- Model zoo (Table III) -------------------------------------------------------

TEST(ModelZooTest, Gpt330bMatchesTableIII) {
  const TransformerConfig config = gpt3_30b();
  EXPECT_EQ(config.num_layers, 48);
  EXPECT_EQ(config.num_heads, 56);
  EXPECT_EQ(config.d_model, 7168);
  EXPECT_EQ(config.d_head(), 128);
  // Stack parameter count ~ 29.6B (the "30B" the name advertises).
  EXPECT_NEAR(config.stack_parameters() / 1e9, 29.6, 0.5);
}

TEST(ModelZooTest, DitXl2MatchesTableIII) {
  const TransformerConfig config = dit_xl_2();
  EXPECT_EQ(config.num_layers, 28);
  EXPECT_EQ(config.num_heads, 16);
  EXPECT_EQ(config.d_model, 1152);
  EXPECT_EQ(config.d_head(), 72);
  // The Transformer stack (12*d^2 per block) is ~446M of DiT-XL/2's
  // ~675M total; adaLN conditioning MLPs and embeddings make up the rest
  // and are modeled as separate graph ops.
  EXPECT_NEAR(config.stack_parameters() / 1e6, 446, 10);
}

TEST(ModelZooTest, Llama213bConfig) {
  const TransformerConfig config = llama2_13b();
  EXPECT_EQ(config.num_layers, 40);
  EXPECT_EQ(config.num_heads, 40);
  EXPECT_EQ(config.d_model, 5120);
  EXPECT_EQ(config.d_ff, 13824);
  EXPECT_EQ(config.ffn, FfnKind::kSwiGlu);
  EXPECT_NEAR(config.stack_parameters() / 1e9, 12.7, 0.5);
}

TEST(ModelZooTest, LookupByName) {
  EXPECT_EQ(model_by_name("gpt3-30b").d_model, 7168);
  EXPECT_EQ(model_by_name("llama2-7b").d_model, 4096);
  EXPECT_EQ(model_by_name("dit-xl/2").num_layers, 28);
  EXPECT_THROW(model_by_name("gpt5"), ConfigError);
  EXPECT_EQ(model_names().size(), 5u);
}

TEST(ModelZooTest, ValidationCatchesBadConfigs) {
  TransformerConfig bad = gpt3_30b();
  bad.d_model = 7169;  // not divisible by 56 heads
  EXPECT_THROW(bad.validate(), ConfigError);
  bad = gpt3_30b();
  bad.num_layers = 0;
  EXPECT_THROW(bad.validate(), ConfigError);
}

TEST(ModelZooTest, WeightBytesClosedForm) {
  const TransformerConfig config = gpt3_30b();
  // 12 * d^2 bytes INT8 per layer for GELU FFN (4x hidden).
  EXPECT_DOUBLE_EQ(config.layer_weight_bytes(), 12.0 * 7168 * 7168);
  // Llama (SwiGLU): 4d^2 + 3*d*d_ff.
  const TransformerConfig llama = llama2_13b();
  EXPECT_DOUBLE_EQ(llama.layer_weight_bytes(),
                   4.0 * 5120 * 5120 + 3.0 * 5120 * 13824);
}

TEST(ModelZooTest, KvCacheBytes) {
  // 2 * batch * kv * d: GPT3-30B at batch 8, kv 1280 = 146.8 MB.
  EXPECT_NEAR(kv_cache_bytes_per_layer(gpt3_30b(), 8, 1280) / 1e6, 146.8, 0.1);
}

// --- KV residency ------------------------------------------------------------------

TEST(KvResidencyTest, FitsCmemWhenSmall) {
  EXPECT_EQ(choose_kv_residency(50e6, 128 * MiB, 16 * MiB),
            ir::Residency::kCmem);
  EXPECT_EQ(choose_kv_residency(140e6, 128 * MiB, 0),
            ir::Residency::kHbm);
  // Boundary: operand + reserved exactly at capacity stays in CMEM.
  EXPECT_EQ(choose_kv_residency(64 * MiB, 128 * MiB, 64 * MiB),
            ir::Residency::kCmem);
}

// --- LLM builders -------------------------------------------------------------------

class LlmGraphTest : public ::testing::Test {
 protected:
  TransformerConfig config_ = gpt3_30b();
};

TEST_F(LlmGraphTest, PrefillStructure) {
  const ir::Graph graph =
      build_prefill_layer(config_, 8, 1024, ir::Residency::kCmem);
  for (const char* name : {"ln1", "qkv_proj", "kv_store", "attn_qk",
                           "attn_softmax", "attn_sv", "out_proj", "ln2",
                           "ffn1", "gelu", "ffn2"}) {
    EXPECT_TRUE(graph_has_op(graph, name)) << name;
  }
}

TEST_F(LlmGraphTest, PrefillShapes) {
  const ir::Graph graph =
      build_prefill_layer(config_, 8, 1024, ir::Residency::kCmem);
  const ir::Op& qkv = find_op(graph, "qkv_proj");
  EXPECT_EQ(qkv.m, 8 * 1024);
  EXPECT_EQ(qkv.k, 7168);
  EXPECT_EQ(qkv.n, 3 * 7168);
  const ir::Op& qk = find_op(graph, "attn_qk");
  EXPECT_EQ(qk.instances, 8 * 56);
  EXPECT_EQ(qk.m, 1024);
  EXPECT_EQ(qk.k, 128);
  EXPECT_EQ(qk.n, 1024);
  EXPECT_FALSE(qk.stationary_shared);
}

TEST_F(LlmGraphTest, PrefillMacsClosedForm) {
  const std::int64_t B = 8, L = 1024, D = 7168;
  const ir::Graph graph =
      build_prefill_layer(config_, B, L, ir::Residency::kCmem);
  // Linear: B*L*12D^2; attention: B*H*2*L*L*d_head = B*2*L^2*D.
  const double expected =
      static_cast<double>(B) * L * 12 * D * D +
      static_cast<double>(B) * 2 * L * L * D;
  EXPECT_NEAR(layer_macs(graph) / expected, 1.0, 1e-12);
}

TEST_F(LlmGraphTest, DecodeStructure) {
  const ir::Graph graph =
      build_decode_layer(config_, 8, 1280, ir::Residency::kCmem);
  const ir::Op& qkv = find_op(graph, "qkv_proj");
  EXPECT_EQ(qkv.m, 8);  // one token per sequence
  const ir::Op& qk = find_op(graph, "attn_qk");
  EXPECT_EQ(qk.m, 1);
  EXPECT_EQ(qk.n, 1280);
  EXPECT_EQ(qk.instances, 8 * 56);
  const ir::Op& sv = find_op(graph, "attn_sv");
  EXPECT_EQ(sv.k, 1280);
  EXPECT_EQ(sv.n, 128);
  EXPECT_TRUE(graph_has_op(graph, "kv_append"));
}

TEST_F(LlmGraphTest, DecodeMacsClosedForm) {
  const std::int64_t B = 8, KV = 1280, D = 7168;
  const ir::Graph graph =
      build_decode_layer(config_, B, KV, ir::Residency::kCmem);
  const double expected = static_cast<double>(B) * 12 * D * D +
                          static_cast<double>(B) * 2 * KV * D;
  EXPECT_NEAR(layer_macs(graph) / expected, 1.0, 1e-12);
}

TEST_F(LlmGraphTest, KvResidencyPropagates) {
  const ir::Graph hbm =
      build_decode_layer(config_, 8, 1280, ir::Residency::kHbm);
  EXPECT_EQ(find_op(hbm, "attn_qk").stationary_residency, ir::Residency::kHbm);
  const ir::Graph cmem =
      build_decode_layer(config_, 8, 1280, ir::Residency::kCmem);
  EXPECT_EQ(find_op(cmem, "attn_qk").stationary_residency,
            ir::Residency::kCmem);
}

TEST_F(LlmGraphTest, SwiGluEmitsThreeFfnMatrices) {
  const ir::Graph graph =
      build_prefill_layer(llama2_13b(), 1, 128, ir::Residency::kCmem);
  EXPECT_TRUE(graph_has_op(graph, "ffn_gate"));
  EXPECT_TRUE(graph_has_op(graph, "ffn_up"));
  EXPECT_TRUE(graph_has_op(graph, "ffn_down"));
  EXPECT_FALSE(graph_has_op(graph, "ffn1"));
}

TEST_F(LlmGraphTest, EmbeddingAndHead) {
  const ir::Graph embed = build_token_embedding(config_, 8192);
  EXPECT_EQ(embed.ops().front().kind, ir::OpKind::kEmbeddingLookup);
  const ir::Graph head = build_prediction_head(config_, 8);
  const ir::Op& lm = find_op(head, "lm_head");
  EXPECT_EQ(lm.n, 50257);
  // DiT has no vocabulary: head must be rejected.
  EXPECT_THROW(build_prediction_head(dit_xl_2(), 8), ConfigError);
}

TEST_F(LlmGraphTest, InvalidArgsThrow) {
  EXPECT_THROW(build_prefill_layer(config_, 0, 128, ir::Residency::kCmem),
               ConfigError);
  EXPECT_THROW(build_decode_layer(config_, 8, 0, ir::Residency::kCmem),
               ConfigError);
}

// --- DiT builders --------------------------------------------------------------------

TEST(DitGeometryTest, TokensAt512) {
  const DitGeometry geometry = dit_geometry_512();
  EXPECT_EQ(geometry.latent_size(), 64);
  EXPECT_EQ(geometry.tokens(), 1024);
}

TEST(DitGeometryTest, TokensAt256) {
  DitGeometry geometry = dit_geometry_512();
  geometry.image_size = 256;
  EXPECT_EQ(geometry.tokens(), 256);
}

TEST(DitGeometryTest, Validation) {
  DitGeometry bad = dit_geometry_512();
  bad.image_size = 500;  // not divisible by VAE factor 8... 500/8 = 62.5
  EXPECT_THROW(bad.validate(), ConfigError);
}

TEST(DitGraphTest, BlockStructure) {
  const ir::Graph graph =
      build_dit_block(dit_xl_2(), dit_geometry_512(), 8);
  for (const char* name :
       {"adaln_mlp", "modulate1", "qkv_proj", "attn_qk", "attn_softmax",
        "attn_sv", "out_proj", "gate1", "ffn1", "gelu", "ffn2", "gate2"}) {
    EXPECT_TRUE(graph_has_op(graph, name)) << name;
  }
  const ir::Op& qk = find_op(graph, "attn_qk");
  EXPECT_EQ(qk.instances, 8 * 16);
  EXPECT_EQ(qk.k, 72);  // DiT-XL/2 head dim
  EXPECT_EQ(qk.stationary_residency, ir::Residency::kCmem);
}

TEST(DitGraphTest, ConditioningGroupPresent) {
  const ir::Graph graph =
      build_dit_block(dit_xl_2(), dit_geometry_512(), 8);
  EXPECT_TRUE(std::any_of(
      graph.ops().begin(), graph.ops().end(),
      [](const ir::Op& op) { return op.group == "Conditioning"; }));
}

TEST(DitGraphTest, PrePostProcess) {
  const ir::Graph pre =
      build_dit_preprocess(dit_xl_2(), dit_geometry_512(), 8);
  EXPECT_TRUE(graph_has_op(pre, "patchify"));
  EXPECT_TRUE(graph_has_op(pre, "patch_embed"));
  const ir::Op& embed = find_op(pre, "patch_embed");
  EXPECT_EQ(embed.k, 2 * 2 * 4);  // patch^2 * channels
  EXPECT_EQ(embed.n, 1152);

  const ir::Graph post =
      build_dit_postprocess(dit_xl_2(), dit_geometry_512(), 8);
  EXPECT_TRUE(graph_has_op(post, "final_linear"));
  const ir::Op& out = find_op(post, "final_linear");
  EXPECT_EQ(out.n, 2 * 2 * 2 * 4);  // noise + variance
}

TEST(DitGraphTest, BlockMacsDominatedByLinears) {
  const ir::Graph graph =
      build_dit_block(dit_xl_2(), dit_geometry_512(), 8);
  double linear = 0, attention = 0;
  for (const ir::Op& op : graph.ops()) {
    if (!op.is_matmul()) continue;
    if (op.stationary_shared) {
      linear += op.macs();
    } else {
      attention += op.macs();
    }
  }
  EXPECT_GT(linear, attention);  // d_model 1152 at L=1024: linears dominate
}

}  // namespace
}  // namespace cimtpu::models
