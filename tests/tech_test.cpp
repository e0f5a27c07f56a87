// Technology, energy and area model tests: the 22 nm Table II anchors must
// be reproduced exactly, and node scaling must behave monotonically.

#include <gtest/gtest.h>

#include "tech/area_model.h"
#include "tech/calibration.h"
#include "tech/energy_model.h"
#include "tech/technology.h"

namespace cimtpu::tech {
namespace {

TEST(TechnologyTest, KnownNodesResolve) {
  for (const char* name : {"65nm", "28nm", "22nm", "12nm", "7nm"}) {
    const TechnologyNode node = node_by_name(name);
    EXPECT_EQ(node.name, name);
    EXPECT_GT(node.energy_scale, 0);
    EXPECT_GT(node.area_scale, 0);
  }
}

TEST(TechnologyTest, UnknownNodeThrows) {
  EXPECT_THROW(node_by_name("3nm"), ConfigError);
  EXPECT_THROW(node_by_name(""), ConfigError);
}

TEST(TechnologyTest, CalibrationNodeIsUnity) {
  const TechnologyNode node = calibration_node();
  EXPECT_EQ(node.name, "22nm");
  EXPECT_DOUBLE_EQ(node.energy_scale, 1.0);
  EXPECT_DOUBLE_EQ(node.area_scale, 1.0);
  EXPECT_DOUBLE_EQ(node.leakage_scale, 1.0);
}

TEST(TechnologyTest, ScalingMonotonicWithFeatureSize) {
  // Smaller nodes -> lower dynamic energy and smaller area per gate.
  const char* names[] = {"65nm", "28nm", "22nm", "12nm", "7nm"};
  for (int i = 0; i + 1 < 5; ++i) {
    const TechnologyNode coarse = node_by_name(names[i]);
    const TechnologyNode fine = node_by_name(names[i + 1]);
    EXPECT_GT(coarse.energy_scale, fine.energy_scale) << names[i];
    EXPECT_GT(coarse.area_scale, fine.area_scale) << names[i];
  }
}

// --- Energy model -------------------------------------------------------------

TEST(EnergyModelTest, TableIIAnchorDigital) {
  const EnergyModel energy(calibration_node());
  // 2 ops / 0.77e12 ops/J.
  EXPECT_NEAR(energy.digital_mac(ir::DType::kInt8), 2.0 / 0.77e12, 1e-18);
}

TEST(EnergyModelTest, TableIIAnchorCim) {
  const EnergyModel energy(calibration_node());
  EXPECT_NEAR(energy.cim_mac(ir::DType::kInt8), 2.0 / 7.26e12, 1e-18);
}

TEST(EnergyModelTest, MacroEfficiencyRatioIs943) {
  const EnergyModel energy(calibration_node());
  EXPECT_NEAR(energy.digital_mac(ir::DType::kInt8) /
                  energy.cim_mac(ir::DType::kInt8),
              9.43, 0.01);
}

TEST(EnergyModelTest, DtypeOrdering) {
  const EnergyModel energy(calibration_node());
  // INT8 < BF16 < FP32 for both designs.
  EXPECT_LT(energy.digital_mac(ir::DType::kInt8),
            energy.digital_mac(ir::DType::kBf16));
  EXPECT_LT(energy.digital_mac(ir::DType::kBf16),
            energy.digital_mac(ir::DType::kFp32));
  EXPECT_LT(energy.cim_mac(ir::DType::kInt8),
            energy.cim_mac(ir::DType::kBf16));
  EXPECT_LT(energy.cim_mac(ir::DType::kBf16),
            energy.cim_mac(ir::DType::kFp32));
}

TEST(EnergyModelTest, BubbleSlotCheaperThanMac) {
  const EnergyModel energy(calibration_node());
  EXPECT_LT(energy.digital_bubble_slot(ir::DType::kInt8),
            energy.digital_mac(ir::DType::kInt8));
  EXPECT_LT(energy.cim_idle_slot(ir::DType::kInt8),
            energy.cim_mac(ir::DType::kInt8));
  // CIM idle banks are far better gated than digital bubbles.
  EXPECT_LT(energy.cim_idle_slot(ir::DType::kInt8) /
                energy.cim_mac(ir::DType::kInt8),
            energy.digital_bubble_slot(ir::DType::kInt8) /
                energy.digital_mac(ir::DType::kInt8));
}

TEST(EnergyModelTest, CimWeightWriteCheaperThanDigitalLoad) {
  const EnergyModel energy(calibration_node());
  // SRAM write via the weight port vs shifting through 64 register hops.
  EXPECT_LT(energy.cim_weight_write_per_byte(),
            energy.digital_weight_load_per_byte());
}

TEST(EnergyModelTest, MemoryHierarchyEnergyOrdering) {
  const EnergyModel energy(calibration_node());
  EXPECT_LT(energy.vmem_per_byte(), energy.cmem_per_byte());
  EXPECT_LT(energy.cmem_per_byte(), energy.hbm_per_byte());
}

TEST(EnergyModelTest, DramEnergyDoesNotScaleWithNode) {
  const EnergyModel e22(calibration_node());
  const EnergyModel e7(node_by_name("7nm"));
  EXPECT_DOUBLE_EQ(e22.hbm_per_byte(), e7.hbm_per_byte());
  // But on-chip SRAM does.
  EXPECT_GT(e22.vmem_per_byte(), e7.vmem_per_byte());
}

TEST(EnergyModelTest, NodeScalingAppliesToMacs) {
  const EnergyModel e22(calibration_node());
  const EnergyModel e7(node_by_name("7nm"));
  const double scale = node_by_name("7nm").energy_scale;
  EXPECT_NEAR(e7.digital_mac(ir::DType::kInt8),
              e22.digital_mac(ir::DType::kInt8) * scale, 1e-18);
  EXPECT_NEAR(e7.cim_mac(ir::DType::kInt8),
              e22.cim_mac(ir::DType::kInt8) * scale, 1e-18);
}

// --- Area model ----------------------------------------------------------------

TEST(AreaModelTest, TableIIDigitalAreaAnchor) {
  const AreaModel area(calibration_node());
  // 128x128 at 1 GHz: 32.768 TOPS / 0.648 TOPS/mm^2.
  EXPECT_NEAR(area.digital_array(128, 128), 32.768 / 0.648, 0.01);
}

TEST(AreaModelTest, TableIICimAreaAnchor) {
  const AreaModel area(calibration_node());
  EXPECT_NEAR(area.cim_mxu(16, 8, 128, 256), 32.768 / 1.31, 0.01);
}

TEST(AreaModelTest, AreaEfficiencyRatioIs202) {
  const AreaModel area(calibration_node());
  EXPECT_NEAR(area.digital_array(128, 128) / area.cim_mxu(16, 8, 128, 256),
              2.02, 0.01);
}

TEST(AreaModelTest, AreaScalesLinearlyWithPeCount) {
  const AreaModel area(calibration_node());
  EXPECT_NEAR(area.digital_array(64, 64) * 4, area.digital_array(128, 128),
              1e-9);
  EXPECT_NEAR(area.cim_mxu(8, 8, 128, 256) * 2, area.cim_mxu(16, 8, 128, 256),
              1e-9);
}

TEST(AreaModelTest, SramAreaProportionalToCapacity) {
  const AreaModel area(calibration_node());
  EXPECT_NEAR(area.sram(16 * MiB), 16 * cal::kSramAreaPerMiB, 1e-9);
  EXPECT_NEAR(area.sram(128 * MiB), 8 * area.sram(16 * MiB), 1e-9);
}

TEST(AreaModelTest, NodeScalingShrinksArea) {
  const AreaModel a22(calibration_node());
  const AreaModel a7(node_by_name("7nm"));
  EXPECT_LT(a7.digital_array(128, 128), a22.digital_array(128, 128));
  EXPECT_LT(a7.cim_core(128, 256), a22.cim_core(128, 256));
}

TEST(AreaModelTest, VpuAreaPositive) {
  const AreaModel area(calibration_node());
  EXPECT_GT(area.vpu(1024), 0.0);
  EXPECT_NEAR(area.vpu(2048), 2 * area.vpu(1024), 1e-12);
}

}  // namespace
}  // namespace cimtpu::tech

namespace cimtpu::tech {
namespace {

// --- INT4 extension ------------------------------------------------------------

TEST(Int4ExtensionTest, HalfByteStorage) {
  EXPECT_DOUBLE_EQ(ir::dtype_bytes(ir::DType::kInt4), 0.5);
  EXPECT_EQ(ir::dtype_name(ir::DType::kInt4), "INT4");
  EXPECT_EQ(ir::dtype_from_name("int4"), ir::DType::kInt4);
}

TEST(Int4ExtensionTest, CheaperThanInt8OnBothDesigns) {
  const EnergyModel energy(calibration_node());
  EXPECT_LT(energy.digital_mac(ir::DType::kInt4),
            energy.digital_mac(ir::DType::kInt8));
  EXPECT_LT(energy.cim_mac(ir::DType::kInt4),
            energy.cim_mac(ir::DType::kInt8));
}

TEST(Int4ExtensionTest, CimAdvantageGrowsAtInt4) {
  // CIM macros are natively INT4-efficient ([8]): the CIM/digital per-MAC
  // ratio must improve over the 9.43x INT8 anchor.
  const EnergyModel energy(calibration_node());
  const double int8_ratio = energy.digital_mac(ir::DType::kInt8) /
                            energy.cim_mac(ir::DType::kInt8);
  const double int4_ratio = energy.digital_mac(ir::DType::kInt4) /
                            energy.cim_mac(ir::DType::kInt4);
  EXPECT_GT(int4_ratio, int8_ratio);
}

}  // namespace
}  // namespace cimtpu::tech
