// Tiling-search tests: traffic model invariants, legality, and the reuse
// behaviour the paper's mapping engine (Fig. 5) relies on.

#include <gtest/gtest.h>

#include "common/status.h"
#include "mapping/tiling.h"

namespace cimtpu::mapping {
namespace {

// Table I's 16 MiB VMEM.
constexpr Bytes kVmem = 16 * MiB;

ir::Op gemm(std::int64_t m, std::int64_t k, std::int64_t n) {
  return ir::make_weight_gemm("g", "G", m, k, n, ir::DType::kInt8);
}

TEST(TilingTest, CompulsoryTraffic) {
  const ir::Op op = gemm(100, 200, 300);
  EXPECT_DOUBLE_EQ(compulsory_traffic(op),
                   100.0 * 200 + 200.0 * 300 + 100.0 * 300);
}

TEST(TilingTest, FullFitReachesCompulsoryTraffic) {
  // Everything fits in one tile: no re-reads, reuse factor 1.
  const ir::Op op = gemm(64, 128, 128);
  const TileChoice choice = best_tiling(op, kVmem);
  EXPECT_EQ(choice.total_tiles(), 1);
  EXPECT_DOUBLE_EQ(choice.vmem_traffic, compulsory_traffic(op));
  EXPECT_DOUBLE_EQ(choice.reuse_factor, 1.0);
}

TEST(TilingTest, WorkingSetRespectsBudget) {
  const ir::Op op = gemm(8192, 7168, 28672);  // GPT3-30B FFN1, prefill
  for (const TileChoice& choice : enumerate_tilings(op, kVmem)) {
    EXPECT_LE(choice.working_set, kVmem * kTileBufferFraction);
  }
}

TEST(TilingTest, BestIsTrafficMinimal) {
  const ir::Op op = gemm(8192, 7168, 28672);
  const TileChoice best = best_tiling(op, kVmem);
  for (const TileChoice& choice : enumerate_tilings(op, kVmem)) {
    EXPECT_LE(best.vmem_traffic, choice.vmem_traffic);
  }
  // Large GEMMs cannot reach compulsory traffic in 8 MiB of buffer.
  EXPECT_GT(best.vmem_traffic, compulsory_traffic(op));
  EXPECT_LT(best.reuse_factor, 1.0);
  EXPECT_GT(best.reuse_factor, 0.01);
}

TEST(TilingTest, MoreVmemNeverHurts) {
  const ir::Op op = gemm(8192, 7168, 7168);
  EXPECT_GE(best_tiling(op, 4 * MiB).vmem_traffic,
            best_tiling(op, 64 * MiB).vmem_traffic);
}

TEST(TilingTest, KSplitChargesPartialSumRevisits) {
  const ir::Op op = gemm(128, 1024, 128);
  const TileChoice whole_k = evaluate_tiling(op, 128, 1024, 128);
  const TileChoice split_k = evaluate_tiling(op, 128, 128, 128);
  // 8 K-tiles -> 1 + 2*7 = 15x output traffic.
  EXPECT_DOUBLE_EQ(split_k.vmem_traffic - whole_k.vmem_traffic,
                   14.0 * 128 * 128);
}

TEST(TilingTest, TilesCountsConsistent) {
  const ir::Op op = gemm(1000, 1000, 1000);
  const TileChoice choice = best_tiling(op, kVmem);
  EXPECT_EQ(choice.m_tiles, (1000 + choice.tm - 1) / choice.tm);
  EXPECT_EQ(choice.k_tiles, (1000 + choice.tk - 1) / choice.tk);
  EXPECT_EQ(choice.n_tiles, (1000 + choice.tn - 1) / choice.tn);
}

TEST(TilingTest, ImpossibleBudgetThrows) {
  const ir::Op op = gemm(8192, 7168, 28672);
  EXPECT_THROW(best_tiling(op, 1 * KiB), ConfigError);  // nothing fits
}

TEST(TilingTest, NonMatmulRejected) {
  const ir::Op op = ir::make_softmax("s", "A", 8, 8, ir::DType::kInt8);
  EXPECT_THROW(best_tiling(op, kVmem), InternalError);
}

TEST(TilingTest, InstancesScaleTraffic) {
  ir::Op op = ir::make_attention_gemm("a", "A", 4, 64, 128, 128,
                                      ir::DType::kInt8, ir::Residency::kCmem);
  ir::Op one = op;
  one.instances = 1;
  EXPECT_DOUBLE_EQ(best_tiling(op, kVmem).vmem_traffic,
                   4.0 * best_tiling(one, kVmem).vmem_traffic);
}

TEST(TilingTest, Bf16DoublesWorkingSet) {
  ir::Op i8 = gemm(256, 256, 256);
  ir::Op bf = i8;
  bf.dtype = ir::DType::kBf16;
  EXPECT_DOUBLE_EQ(evaluate_tiling(bf, 256, 256, 256).working_set,
                   2.0 * evaluate_tiling(i8, 256, 256, 256).working_set);
}

// Parameterized sweep: the search must return a legal, consistent result
// across a range of realistic shapes.
class TilingSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TilingSweepTest, LegalAndConsistent) {
  const auto [m, k, n] = GetParam();
  const ir::Op op = gemm(m, k, n);
  const TileChoice choice = best_tiling(op, kVmem);
  EXPECT_LE(choice.working_set, kVmem * kTileBufferFraction);
  EXPECT_GE(choice.vmem_traffic, compulsory_traffic(op) * 0.999999);
  EXPECT_GE(choice.reuse_factor, 0.0);
  EXPECT_LE(choice.reuse_factor, 1.0);
  EXPECT_LE(choice.tm, std::max<std::int64_t>(op.m, 1));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TilingSweepTest,
    ::testing::Combine(::testing::Values(1, 8, 1024, 8192),
                       ::testing::Values(72, 1152, 7168),
                       ::testing::Values(128, 1281, 28672)));

}  // namespace
}  // namespace cimtpu::mapping
