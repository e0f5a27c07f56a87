// Operator IR tests: FLOP/byte accounting for every op kind, validation,
// and graph rollups.

#include <gtest/gtest.h>

#include "ir/graph.h"
#include "ir/op.h"

namespace cimtpu::ir {
namespace {

TEST(DtypeTest, Sizes) {
  EXPECT_DOUBLE_EQ(dtype_bytes(DType::kInt8), 1.0);
  EXPECT_DOUBLE_EQ(dtype_bytes(DType::kBf16), 2.0);
  EXPECT_DOUBLE_EQ(dtype_bytes(DType::kFp32), 4.0);
}

TEST(DtypeTest, Names) {
  EXPECT_EQ(dtype_name(DType::kInt8), "INT8");
  EXPECT_EQ(dtype_from_name("bf16"), DType::kBf16);
  EXPECT_EQ(dtype_from_name("INT8"), DType::kInt8);
  EXPECT_THROW(dtype_from_name("fp64"), ConfigError);
}

TEST(OpTest, WeightGemmAccounting) {
  const Op op = make_weight_gemm("g", "FFN1", 8, 7168, 28672, DType::kInt8);
  EXPECT_DOUBLE_EQ(op.macs(), 8.0 * 7168 * 28672);
  EXPECT_DOUBLE_EQ(op.flops(), 2.0 * op.macs());
  EXPECT_DOUBLE_EQ(op.moving_bytes(), 8.0 * 7168);
  EXPECT_DOUBLE_EQ(op.stationary_bytes(), 7168.0 * 28672);
  EXPECT_DOUBLE_EQ(op.output_bytes(), 8.0 * 28672);
  EXPECT_EQ(op.stationary_residency, Residency::kHbm);
  EXPECT_TRUE(op.stationary_shared);
  EXPECT_TRUE(op.is_matmul());
}

TEST(OpTest, AttentionGemmAccounting) {
  // 448 instances of [1,128]x[128,1280]: decode Q*K^T.
  const Op op = make_attention_gemm("qk", "Attention", 448, 1, 128, 1280,
                                    DType::kInt8, Residency::kCmem);
  EXPECT_DOUBLE_EQ(op.macs(), 448.0 * 128 * 1280);
  EXPECT_DOUBLE_EQ(op.stationary_bytes(), 448.0 * 128 * 1280);
  EXPECT_FALSE(op.stationary_shared);
  EXPECT_EQ(op.stationary_residency, Residency::kCmem);
}

TEST(OpTest, Bf16DoublesBytes) {
  const Op op = make_weight_gemm("g", "G", 4, 8, 16, DType::kBf16);
  EXPECT_DOUBLE_EQ(op.moving_bytes(), 4.0 * 8 * 2);
  EXPECT_DOUBLE_EQ(op.stationary_bytes(), 8.0 * 16 * 2);
}

TEST(OpTest, SoftmaxAccounting) {
  const Op op = make_softmax("s", "Attention", 100, 1024, DType::kInt8);
  EXPECT_DOUBLE_EQ(op.flops(), 12.0 * 100 * 1024);
  EXPECT_DOUBLE_EQ(op.macs(), 0.0);
  EXPECT_DOUBLE_EQ(op.moving_bytes(), 100.0 * 1024);
  EXPECT_FALSE(op.is_matmul());
}

TEST(OpTest, LayerNormAccounting) {
  const Op op = make_layer_norm("ln", "LayerNorm", 8, 7168, DType::kInt8);
  EXPECT_DOUBLE_EQ(op.flops(), 8.0 * 8 * 7168);
  EXPECT_DOUBLE_EQ(op.output_bytes(), 8.0 * 7168);
}

TEST(OpTest, GeluAccounting) {
  const Op op = make_gelu("g", "GeLU", 1000, DType::kInt8);
  EXPECT_DOUBLE_EQ(op.flops(), 12.0 * 1000);
}

TEST(OpTest, ElementwiseOpsPerElement) {
  const Op op = make_elementwise("e", "Cond", 1000, 2.0, DType::kInt8);
  EXPECT_DOUBLE_EQ(op.flops(), 2000.0);
}

TEST(OpTest, EmbeddingIsPureGather) {
  const Op op = make_embedding_lookup("e", "Embed", 8192, 7168, DType::kInt8);
  EXPECT_DOUBLE_EQ(op.flops(), 0.0);
  EXPECT_DOUBLE_EQ(op.moving_bytes(), 8192.0 * 7168);
}

TEST(OpTest, DataMovementNoFlops) {
  const Op op = make_data_movement("d", "Pre", 4096, DType::kInt8);
  EXPECT_DOUBLE_EQ(op.flops(), 0.0);
  EXPECT_DOUBLE_EQ(op.moving_bytes(), 4096.0);
}

TEST(OpTest, ValidationRejectsBadShapes) {
  EXPECT_THROW(make_weight_gemm("g", "G", 0, 8, 8, DType::kInt8), ConfigError);
  EXPECT_THROW(make_weight_gemm("g", "G", 8, -1, 8, DType::kInt8),
               ConfigError);
  EXPECT_THROW(make_softmax("s", "A", 0, 8, DType::kInt8), ConfigError);
  EXPECT_THROW(make_gelu("g", "G", 0, DType::kInt8), ConfigError);
  Op nameless;
  nameless.m = nameless.k = nameless.n = 1;
  EXPECT_THROW(nameless.validate(), ConfigError);
}

TEST(OpTest, ResidencyNames) {
  EXPECT_EQ(residency_name(Residency::kHbm), "HBM");
  EXPECT_EQ(residency_name(Residency::kCmem), "CMEM");
}

// --- Graph -----------------------------------------------------------------------

TEST(GraphTest, AddAndTotals) {
  Graph graph("layer");
  graph.add(make_weight_gemm("a", "QKV Gen", 8, 16, 32, DType::kInt8));
  graph.add(make_weight_gemm("b", "FFN1", 8, 16, 32, DType::kInt8));
  graph.add(make_softmax("s", "Attention", 8, 32, DType::kInt8));
  EXPECT_EQ(graph.size(), 3u);
  double macs = 0, flops = 0;
  Bytes stationary = 0;
  for (const Op& op : graph.ops()) {
    macs += op.macs();
    flops += op.flops();
    stationary += op.stationary_bytes();
  }
  EXPECT_DOUBLE_EQ(macs, 2.0 * 8 * 16 * 32);
  EXPECT_DOUBLE_EQ(flops, 2.0 * 2 * 8 * 16 * 32 + 12.0 * 8 * 32);
  EXPECT_DOUBLE_EQ(stationary, 2.0 * 16 * 32);
}

TEST(GraphTest, AddValidates) {
  Graph graph;
  Op bad;
  bad.name = "bad";
  bad.m = 0;
  EXPECT_THROW(graph.add(bad), ConfigError);
}

}  // namespace
}  // namespace cimtpu::ir
