// Mapping engine tests: optimal-candidate selection against a test-side
// rebuild of the mapspace, and memory streaming plans.

#include <gtest/gtest.h>

#include <algorithm>

#include "cim/cim_mxu.h"
#include "mapping/mapper.h"
#include "systolic/systolic_mxu.h"
#include "tech/technology.h"

namespace cimtpu::mapping {
namespace {

class MapperTest : public ::testing::Test {
 protected:
  MapperTest()
      : energy_(tech::calibration_node()),
        area_(tech::calibration_node()),
        mxu_(systolic::SystolicMxuSpec{128, 128}, energy_, area_),
        mapper_(mxu_, /*unit_count=*/4) {}

  tech::EnergyModel energy_;
  tech::AreaModel area_;
  systolic::SystolicMxu mxu_;
  Mapper mapper_;
};

/// The pruned mapspace rebuilt in the test: instance-, n- and m-split over
/// up to `unit_count` units where the dimension exceeds 1, then a single
/// unit, in the mapper's try order, each costed on `unit`.
std::vector<CandidateCost> reference_mapspace(const systolic::MatrixUnit& unit,
                                              int unit_count,
                                              const ir::Op& op) {
  const systolic::GemmWorkload whole{op.m, op.k, op.n, op.instances,
                                     op.dtype};
  std::vector<CandidateCost> candidates;
  auto split = [&](Split kind, std::int64_t systolic::GemmWorkload::*dim) {
    const std::int64_t extent = whole.*dim;
    if (extent <= 1) return;
    CandidateCost c;
    c.split = kind;
    c.units_used = static_cast<int>(std::min<std::int64_t>(unit_count, extent));
    c.per_unit = whole;
    c.per_unit.*dim = (extent + c.units_used - 1) / c.units_used;
    candidates.push_back(c);
  };
  split(Split::kInstance, &systolic::GemmWorkload::instances);
  split(Split::kN, &systolic::GemmWorkload::n);
  split(Split::kM, &systolic::GemmWorkload::m);
  CandidateCost single;
  single.per_unit = whole;
  candidates.push_back(single);
  for (CandidateCost& c : candidates) c.unit_cost = unit.evaluate(c.per_unit);
  return candidates;
}

/// best_candidate (the simulator's per-op kernel) must pick the first
/// candidate of the mapspace with the fewest busy cycles.
void expect_best_of_mapspace(const systolic::MatrixUnit& unit, int unit_count,
                             const ir::Op& op) {
  const std::vector<CandidateCost> candidates =
      reference_mapspace(unit, unit_count, op);
  const CandidateCost* reference = &candidates.front();
  for (const CandidateCost& c : candidates) {
    if (c.unit_cost.busy_cycles < reference->unit_cost.busy_cycles) {
      reference = &c;
    }
  }
  const CandidateCost best = Mapper(unit, unit_count).best_candidate(op);
  EXPECT_EQ(best.split, reference->split) << op.name;
  EXPECT_EQ(best.units_used, reference->units_used) << op.name;
  EXPECT_EQ(best.per_unit.instances, reference->per_unit.instances) << op.name;
  EXPECT_EQ(best.per_unit.m, reference->per_unit.m) << op.name;
  EXPECT_EQ(best.per_unit.n, reference->per_unit.n) << op.name;
  EXPECT_EQ(best.unit_cost.busy_cycles, reference->unit_cost.busy_cycles)
      << op.name;
  EXPECT_EQ(best.busy_energy(), reference->busy_energy()) << op.name;
}

TEST_F(MapperTest, BestNeverWorseThanAnyCandidate) {
  for (const ir::Op& op :
       {ir::make_weight_gemm("g1", "G", 8192, 7168, 7168, ir::DType::kInt8),
        ir::make_weight_gemm("g2", "G", 8, 7168, 21504, ir::DType::kInt8),
        ir::make_attention_gemm("a", "A", 448, 1, 128, 1280,
                                ir::DType::kInt8, ir::Residency::kCmem)}) {
    const CandidateCost best = mapper_.best_candidate(op);
    for (const CandidateCost& c : reference_mapspace(mxu_, 4, op)) {
      EXPECT_LE(best.unit_cost.busy_cycles, c.unit_cost.busy_cycles)
          << op.name << " split " << static_cast<int>(c.split);
    }
  }
}

TEST_F(MapperTest, InstanceSplitWinsForManyInstances) {
  // 448 attention instances over 4 units: embarrassingly parallel.
  const ir::Op op = ir::make_attention_gemm("a", "A", 448, 1, 128, 1280,
                                            ir::DType::kInt8,
                                            ir::Residency::kCmem);
  const CandidateCost best = mapper_.best_candidate(op);
  EXPECT_EQ(best.split, Split::kInstance);
  EXPECT_EQ(best.units_used, 4);
  EXPECT_EQ(best.per_unit.instances, 112);
}

TEST_F(MapperTest, MultiUnitSpeedsUpBigGemm) {
  const ir::Op op =
      ir::make_weight_gemm("g", "G", 8192, 7168, 7168, ir::DType::kInt8);
  const CandidateCost best = mapper_.best_candidate(op);
  const CandidateCost alone = Mapper(mxu_, 1).best_candidate(op);
  EXPECT_LT(best.unit_cost.busy_cycles, alone.unit_cost.busy_cycles * 0.3);
  EXPECT_EQ(best.units_used, 4);
}

TEST(MapperCimTest, CimMapperPrefersWideSplits) {
  tech::EnergyModel energy(tech::calibration_node());
  tech::AreaModel area(tech::calibration_node());
  cim::CimMxu cim(cim::CimMxuSpec{}, energy, area);
  Mapper mapper(cim, 4);
  const ir::Op op =
      ir::make_weight_gemm("g", "G", 8192, 1152, 1152, ir::DType::kInt8);
  const CandidateCost best = mapper.best_candidate(op);
  EXPECT_GT(best.units_used, 1);
  EXPECT_GT(best.unit_cost.utilization(), 0.1);
}

TEST_F(MapperTest, BestCandidateIsTheFirstCheapestOfTheMapspace) {
  for (const ir::Op& op :
       {ir::make_weight_gemm("g1", "G", 8192, 7168, 7168, ir::DType::kInt8),
        ir::make_weight_gemm("g2", "G", 8, 7168, 21504, ir::DType::kInt8),
        ir::make_weight_gemm("g3", "G", 1024, 128, 512, ir::DType::kInt8),
        ir::make_weight_gemm("g4", "G", 100, 200, 300, ir::DType::kInt8),
        ir::make_weight_gemm("gemv", "G", 1, 4096, 11008, ir::DType::kInt4),
        ir::make_attention_gemm("qk", "A", 448, 1, 128, 1280,
                                ir::DType::kInt8, ir::Residency::kCmem),
        ir::make_attention_gemm("sv", "A", 448, 16, 128, 1280,
                                ir::DType::kInt8, ir::Residency::kCmem)}) {
    expect_best_of_mapspace(mxu_, 4, op);
  }
  tech::EnergyModel energy(tech::calibration_node());
  tech::AreaModel area(tech::calibration_node());
  cim::CimMxu cim(cim::CimMxuSpec{}, energy, area);
  expect_best_of_mapspace(
      cim, 4,
      ir::make_weight_gemm("g", "G", 8192, 1152, 1152, ir::DType::kInt8));
}

TEST_F(MapperTest, TieGoesToTheFirstCandidateInMapspaceOrder) {
  // On one unit every split degenerates to the whole GEMM, so all four
  // candidates cost exactly the same and the first, instance-split, wins.
  const ir::Op op = ir::make_attention_gemm("tie", "A", 8, 16, 128, 256,
                                            ir::DType::kInt8,
                                            ir::Residency::kCmem);
  const std::vector<CandidateCost> candidates =
      reference_mapspace(mxu_, 1, op);
  ASSERT_EQ(candidates.size(), 4u);
  for (const CandidateCost& c : candidates) {
    EXPECT_EQ(c.unit_cost.busy_cycles, candidates.front().unit_cost.busy_cycles)
        << "split " << static_cast<int>(c.split);
  }
  EXPECT_EQ(Mapper(mxu_, 1).best_candidate(op).split, Split::kInstance);
  expect_best_of_mapspace(mxu_, 1, op);
}

// --- Streaming plans ---------------------------------------------------------------

TEST(StreamingPlanTest, HbmWeightsCrossAllChannels) {
  const ir::Op op =
      ir::make_weight_gemm("g", "G", 8, 7168, 7168, ir::DType::kInt8);
  const StreamingPlan plan =
      Mapper::plan_streaming(op, mem::MemorySystemSpec{});
  EXPECT_DOUBLE_EQ(plan.hbm_bytes, op.stationary_bytes());
  EXPECT_GE(plan.cmem_bytes, op.stationary_bytes());
  EXPECT_GE(plan.vmem_bytes,
            op.stationary_bytes() + op.moving_bytes() + op.output_bytes());
}

TEST(StreamingPlanTest, CmemKvSkipsHbm) {
  const ir::Op op = ir::make_attention_gemm(
      "a", "A", 448, 1, 128, 1280, ir::DType::kInt8, ir::Residency::kCmem);
  const StreamingPlan plan =
      Mapper::plan_streaming(op, mem::MemorySystemSpec{});
  EXPECT_DOUBLE_EQ(plan.hbm_bytes, 0.0);
  EXPECT_GE(plan.cmem_bytes, op.stationary_bytes());
}

TEST(StreamingPlanTest, LargeVmemTensorsSpillToCmem) {
  // 58 MB of activations cannot be VMEM-resident (16 MiB).
  const ir::Op op =
      ir::make_weight_gemm("g", "G", 8192, 7168, 128, ir::DType::kInt8);
  const StreamingPlan plan =
      Mapper::plan_streaming(op, mem::MemorySystemSpec{});
  EXPECT_GE(plan.cmem_bytes, op.moving_bytes());
}

TEST(StreamingPlanTest, SmallTensorsStayInVmem) {
  const ir::Op op = ir::make_weight_gemm("g", "G", 8, 128, 128,
                                         ir::DType::kInt8);
  ir::Op vmem_op = op;
  vmem_op.stationary_residency = ir::Residency::kVmem;
  const StreamingPlan plan =
      Mapper::plan_streaming(vmem_op, mem::MemorySystemSpec{});
  EXPECT_DOUBLE_EQ(plan.hbm_bytes, 0.0);
  EXPECT_DOUBLE_EQ(plan.cmem_bytes, 0.0);
}

TEST(StreamingPlanTest, MemoryTimeIsSlowastChannel) {
  StreamingPlan plan;
  plan.hbm_bytes = 614e6;  // 1 ms at 614 GB/s
  plan.cmem_bytes = 1e6;
  plan.vmem_bytes = 1e6;
  EXPECT_NEAR(plan.memory_time(mem::MemorySystemSpec{}), 1e-3, 1e-9);
}

TEST(StreamingPlanTest, EmbeddingGathersFromHbm) {
  const ir::Op op =
      ir::make_embedding_lookup("e", "E", 8192, 7168, ir::DType::kInt8);
  const StreamingPlan plan =
      Mapper::plan_streaming(op, mem::MemorySystemSpec{});
  EXPECT_GT(plan.hbm_bytes, 0.0);
}

TEST(StreamingPlanTest, TilesGrowWithTraffic) {
  const ir::Op small =
      ir::make_weight_gemm("s", "G", 8, 128, 128, ir::DType::kInt8);
  const ir::Op large =
      ir::make_weight_gemm("l", "G", 8, 7168, 28672, ir::DType::kInt8);
  const auto spec = mem::MemorySystemSpec{};
  EXPECT_GT(Mapper::plan_streaming(large, spec).tiles,
            Mapper::plan_streaming(small, spec).tiles);
  EXPECT_GE(Mapper::plan_streaming(small, spec).tiles, 1.0);
}

TEST(MapperConstructionTest, RejectsZeroUnits) {
  tech::EnergyModel energy(tech::calibration_node());
  tech::AreaModel area(tech::calibration_node());
  systolic::SystolicMxu mxu(systolic::SystolicMxuSpec{}, energy, area);
  EXPECT_THROW(Mapper(mxu, 0), ConfigError);
}

}  // namespace
}  // namespace cimtpu::mapping
