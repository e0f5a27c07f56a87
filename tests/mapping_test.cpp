// Mapping engine tests: mapspace enumeration, optimal-candidate selection,
// and memory streaming plans.

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

TEST_F(MapperTest, EnumeratesAllApplicableStrategies) {
  const ir::Op op = ir::make_attention_gemm("a", "A", 448, 16, 128, 1280,
                                            ir::DType::kInt8,
                                            ir::Residency::kCmem);
  const auto candidates = mapper_.enumerate(op);
  std::vector<std::string> names;
  for (const auto& c : candidates) names.push_back(c.strategy);
  EXPECT_NE(std::find(names.begin(), names.end(), "instance-split"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "n-split"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "m-split"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "single-unit"), names.end());
}

TEST_F(MapperTest, BestNeverWorseThanSingleUnit) {
  for (const ir::Op& op :
       {ir::make_weight_gemm("g1", "G", 8192, 7168, 7168, ir::DType::kInt8),
        ir::make_weight_gemm("g2", "G", 8, 7168, 21504, ir::DType::kInt8),
        ir::make_attention_gemm("a", "A", 448, 1, 128, 1280,
                                ir::DType::kInt8, ir::Residency::kCmem)}) {
    const auto candidates = mapper_.enumerate(op);
    const GemmMapping best = mapper_.best_mapping(op);
    for (const auto& c : candidates) {
      EXPECT_LE(best.busy_cycles, c.busy_cycles) << op.name << " " << c.strategy;
    }
  }
}

TEST_F(MapperTest, InstanceSplitWinsForManyInstances) {
  // 448 attention instances over 4 units: embarrassingly parallel.
  const ir::Op op = ir::make_attention_gemm("a", "A", 448, 1, 128, 1280,
                                            ir::DType::kInt8,
                                            ir::Residency::kCmem);
  const GemmMapping best = mapper_.best_mapping(op);
  EXPECT_EQ(best.strategy, "instance-split");
  EXPECT_EQ(best.units_used, 4);
  EXPECT_EQ(best.per_unit.instances, 112);
}

TEST_F(MapperTest, MultiUnitSpeedsUpBigGemm) {
  const ir::Op op =
      ir::make_weight_gemm("g", "G", 8192, 7168, 7168, ir::DType::kInt8);
  const GemmMapping best = mapper_.best_mapping(op);
  Mapper single(mxu_, 1);
  const GemmMapping alone = single.best_mapping(op);
  EXPECT_LT(best.busy_cycles, alone.busy_cycles * 0.3);
  EXPECT_EQ(best.units_used, 4);
}

TEST_F(MapperTest, EnergySummedOverUnits) {
  const ir::Op op =
      ir::make_weight_gemm("g", "G", 1024, 128, 512, ir::DType::kInt8);
  for (const auto& c : mapper_.enumerate(op)) {
    EXPECT_NEAR(c.busy_energy, c.unit_cost.busy_energy * c.units_used,
                c.busy_energy * 1e-12);
  }
}

TEST_F(MapperTest, NonMatmulRejected) {
  const ir::Op op = ir::make_softmax("s", "A", 8, 8, ir::DType::kInt8);
  EXPECT_THROW(mapper_.best_mapping(op), InternalError);
}

TEST_F(MapperTest, UsefulMacsPreserved) {
  const ir::Op op =
      ir::make_weight_gemm("g", "G", 100, 200, 300, ir::DType::kInt8);
  EXPECT_DOUBLE_EQ(mapper_.best_mapping(op).useful_macs, 100.0 * 200 * 300);
}

TEST(MapperCimTest, CimMapperPrefersWideSplits) {
  tech::EnergyModel energy(tech::calibration_node());
  tech::AreaModel area(tech::calibration_node());
  cim::CimMxu cim(cim::CimMxuSpec{}, energy, area);
  Mapper mapper(cim, 4);
  const ir::Op op =
      ir::make_weight_gemm("g", "G", 8192, 1152, 1152, ir::DType::kInt8);
  const GemmMapping best = mapper.best_mapping(op);
  EXPECT_GT(best.units_used, 1);
  EXPECT_GT(best.unit_cost.utilization(), 0.1);
}

// --- Non-allocating best candidate -------------------------------------------------

/// best_candidate (the simulator's fast path) and best_mapping must both
/// pick the first candidate of enumerate() with the fewest busy cycles.
void expect_fast_path_matches(const Mapper& mapper, const ir::Op& op) {
  const std::vector<GemmMapping> candidates = mapper.enumerate(op);
  const GemmMapping& reference = *std::min_element(
      candidates.begin(), candidates.end(),
      [](const GemmMapping& a, const GemmMapping& b) {
        return a.busy_cycles < b.busy_cycles;
      });
  const CandidateCost fast = mapper.best_candidate(op);
  const GemmMapping best = mapper.best_mapping(op);
  for (const GemmMapping& expected : {reference, best}) {
    EXPECT_EQ(split_name(fast.split), expected.strategy) << op.name;
    EXPECT_EQ(fast.units_used, expected.units_used) << op.name;
    EXPECT_EQ(fast.unit_cost.busy_cycles, expected.busy_cycles) << op.name;
    EXPECT_EQ(fast.busy_energy(), expected.busy_energy) << op.name;
  }
}

TEST_F(MapperTest, BestCandidateMatchesBestMapping) {
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
    expect_fast_path_matches(mapper_, op);
  }
  tech::EnergyModel energy(tech::calibration_node());
  tech::AreaModel area(tech::calibration_node());
  cim::CimMxu cim(cim::CimMxuSpec{}, energy, area);
  expect_fast_path_matches(
      Mapper(cim, 4),
      ir::make_weight_gemm("g", "G", 8192, 1152, 1152, ir::DType::kInt8));
}

TEST_F(MapperTest, TieGoesToTheFirstCandidateInMapspaceOrder) {
  // On one unit every split degenerates to the whole GEMM, so all four
  // candidates cost exactly the same and the first, instance-split, wins.
  const Mapper one_unit(mxu_, 1);
  const ir::Op op = ir::make_attention_gemm("tie", "A", 8, 16, 128, 256,
                                            ir::DType::kInt8,
                                            ir::Residency::kCmem);
  const std::vector<GemmMapping> candidates = one_unit.enumerate(op);
  ASSERT_EQ(candidates.size(), 4u);
  for (const GemmMapping& c : candidates) {
    EXPECT_EQ(c.busy_cycles, candidates.front().busy_cycles) << c.strategy;
  }
  EXPECT_EQ(one_unit.best_candidate(op).split, Split::kInstance);
  EXPECT_EQ(one_unit.best_mapping(op).strategy, "instance-split");
  expect_fast_path_matches(one_unit, op);
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
