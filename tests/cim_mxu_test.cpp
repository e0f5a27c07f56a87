// CIM-MXU cost-model tests: throughput parity with the digital MXU,
// the overlapped-weight-update GEMV advantage, bank-granular N costing,
// and energy composition.

#include <gtest/gtest.h>

#include "cim/cim_mxu.h"
#include "systolic/systolic_mxu.h"
#include "tech/calibration.h"
#include "tech/technology.h"

namespace cimtpu::cim {
namespace {

using systolic::GemmWorkload;
using systolic::MxuCost;

class CimMxuTest : public ::testing::Test {
 protected:
  CimMxuTest()
      : energy_(tech::calibration_node()),
        area_(tech::calibration_node()),
        cim_(CimMxuSpec{}, energy_, area_),
        digital_(systolic::SystolicMxuSpec{128, 128}, energy_, area_) {}

  tech::EnergyModel energy_;
  tech::AreaModel area_;
  CimMxu cim_;
  systolic::SystolicMxu digital_;
};

TEST_F(CimMxuTest, ThroughputParityWithDigitalMxu) {
  // Table II: both deliver 16384 MACs/cycle.
  EXPECT_DOUBLE_EQ(cim_.macs_per_cycle(), digital_.macs_per_cycle());
  EXPECT_EQ(cim_.name(), "cim-16x8");
}

TEST_F(CimMxuTest, GemvWeightWritesOverlapCompute) {
  // The dedicated weight I/O writes the next tile while the cores compute;
  // the serialized ablation pays compute and writes back to back.
  GemmWorkload w{/*m=*/1, /*k=*/128, /*n=*/256, /*instances=*/1280,
                 ir::DType::kInt8};
  CimMxuSpec serial_spec;
  serial_spec.overlapped_weight_update = false;
  const CimMxu serial(serial_spec, energy_, area_);
  EXPECT_GT(serial.evaluate(w).busy_cycles,
            1.1 * cim_.evaluate(w).busy_cycles);
}

TEST_F(CimMxuTest, TableIIEfficiencyAnchors) {
  EXPECT_NEAR(cim_.tops_per_watt(ir::DType::kInt8, 1 * GHz), 7.26, 1e-6);
  EXPECT_NEAR(cim_.tops_per_mm2(1 * GHz), 1.31, 1e-6);
}

TEST_F(CimMxuTest, LargeGemmSlightlySlowerThanDigital) {
  // Compute-bound GEMM (prefill-like): CIM pays the wave-propagation
  // overhead, landing within a few percent of the digital array
  // (paper Fig. 6: +2.43% prefill latency).
  GemmWorkload w{/*m=*/8192, /*k=*/7168, /*n=*/7168, 1, ir::DType::kInt8};
  const double cim_cycles = cim_.evaluate(w).busy_cycles;
  const double digital_cycles = digital_.evaluate(w).busy_cycles;
  EXPECT_GT(cim_cycles, digital_cycles);
  EXPECT_LT(cim_cycles, digital_cycles * 1.10);
}

TEST_F(CimMxuTest, GemvMuchFasterThanDigital) {
  // Attention-style GEMV with per-instance stationary operands: the
  // digital array stalls on weight loads; the CIM-MXU hides them.
  GemmWorkload w{/*m=*/1, /*k=*/128, /*n=*/1280, /*instances=*/112,
                 ir::DType::kInt8};
  const double cim_cycles = cim_.evaluate(w).busy_cycles;
  const double digital_cycles = digital_.evaluate(w).busy_cycles;
  EXPECT_LT(cim_cycles, digital_cycles * 0.5);
}

TEST_F(CimMxuTest, GemvBoundByWeightIngestNotRamp) {
  GemmWorkload w{/*m=*/1, /*k=*/128, /*n=*/256, /*instances=*/1280,
                 ir::DType::kInt8};
  const MxuCost cost = cim_.evaluate(w);
  // Weight traffic: 1280 tasks x 32 KiB; aggregate port = 4 KiB/cycle.
  const double write_bound = 1280.0 * 128 * 256 / (128 * 32.0);
  EXPECT_GE(cost.busy_cycles, write_bound);
  EXPECT_LT(cost.busy_cycles, write_bound * 1.3);
}

TEST_F(CimMxuTest, BankGranularNarrowN) {
  // n = 72 (DiT head) costs ~72/256 of a full-width core, not a full one.
  GemmWorkload narrow{/*m=*/1024, /*k=*/1024, /*n=*/72, /*instances=*/128,
                      ir::DType::kInt8};
  GemmWorkload wide = narrow;
  wide.n = 256;
  const double narrow_cycles = cim_.evaluate(narrow).busy_cycles;
  const double wide_cycles = cim_.evaluate(wide).busy_cycles;
  EXPECT_LT(narrow_cycles, wide_cycles * 0.45);  // ~80/256 plus overheads
}

TEST_F(CimMxuTest, NPaddingIsBankGranular) {
  // n = 65 pads to 72 (9 banks), not to 256.
  GemmWorkload w65{/*m=*/64, /*k=*/128, /*n=*/65, /*instances=*/256,
                   ir::DType::kInt8};
  GemmWorkload w72 = w65;
  w72.n = 72;
  EXPECT_DOUBLE_EQ(cim_.evaluate(w65).busy_cycles,
                   cim_.evaluate(w72).busy_cycles);
  GemmWorkload w80 = w65;
  w80.n = 73;  // pads to 80
  EXPECT_GT(cim_.evaluate(w80).busy_cycles, cim_.evaluate(w72).busy_cycles);
}

TEST_F(CimMxuTest, ReplicationSplitsMWhenGridUnderfilled) {
  // A single big task would serialize on one core without replication.
  GemmWorkload w{/*m=*/8192, /*k=*/128, /*n=*/256, /*instances=*/1,
                 ir::DType::kInt8};
  const MxuCost cost = cim_.evaluate(w);
  // One core alone: 8192 * 256 cycles.  With 128-way replication the model
  // must do far better.
  EXPECT_LT(cost.busy_cycles, 8192.0 * 256 / 16);
}

TEST_F(CimMxuTest, SingleGemvCannotSplitBelowOneCore) {
  GemmWorkload w{/*m=*/1, /*k=*/128, /*n=*/256, /*instances=*/1,
                 ir::DType::kInt8};
  const MxuCost cost = cim_.evaluate(w);
  // Floor: one core processes one input row over 256 live columns, plus
  // the exposed first weight fill (1024 cycles).
  EXPECT_GE(cost.busy_cycles, 256.0);
}

TEST_F(CimMxuTest, UsefulMacsExact) {
  GemmWorkload w{/*m=*/10, /*k=*/100, /*n=*/70, /*instances=*/3,
                 ir::DType::kInt8};
  EXPECT_DOUBLE_EQ(cim_.evaluate(w).useful_macs, 3.0 * 10 * 100 * 70);
}

TEST_F(CimMxuTest, EnergyComposition) {
  GemmWorkload w{/*m=*/256, /*k=*/256, /*n=*/512, 1, ir::DType::kInt8};
  const MxuCost cost = cim_.evaluate(w);
  const double idle_slots = cost.occupied_mac_slots - cost.useful_macs;
  const Joules expected =
      cost.useful_macs * energy_.cim_mac(ir::DType::kInt8) +
      idle_slots * energy_.cim_idle_slot(ir::DType::kInt8) +
      cost.stationary_bytes_loaded * energy_.cim_weight_write_per_byte();
  EXPECT_NEAR(cost.busy_energy, expected, expected * 1e-12);
}

TEST_F(CimMxuTest, AreaHalfOfDigital) {
  EXPECT_NEAR(digital_.area() / cim_.area(), 2.02, 0.01);
}

TEST_F(CimMxuTest, IdlePowerBelowDigitalIdle) {
  EXPECT_LT(cim_.idle_power(ir::DType::kInt8),
            digital_.idle_power(ir::DType::kInt8));
}

TEST(CimMxuSpecTest, Validation) {
  tech::EnergyModel energy(tech::calibration_node());
  tech::AreaModel area(tech::calibration_node());
  CimMxuSpec bad;
  bad.grid_rows = 0;
  EXPECT_THROW(CimMxu(bad, energy, area), ConfigError);
  CimMxuSpec bad2;
  bad2.core_macs_per_cycle = -1;
  EXPECT_THROW(CimMxu(bad2, energy, area), ConfigError);
}

// --- Parameterized sweep over Table IV grid dimensions --------------------------

class CimGridTest : public ::testing::TestWithParam<std::pair<int, int>> {
 protected:
  CimGridTest()
      : energy_(tech::calibration_node()), area_(tech::calibration_node()) {}
  tech::EnergyModel energy_;
  tech::AreaModel area_;
};

TEST_P(CimGridTest, PeakScalesWithCores) {
  const auto [rows, cols] = GetParam();
  CimMxuSpec spec;
  spec.grid_rows = rows;
  spec.grid_cols = cols;
  CimMxu mxu(spec, energy_, area_);
  EXPECT_DOUBLE_EQ(mxu.macs_per_cycle(), rows * cols * 128.0);
}

TEST_P(CimGridTest, EfficiencyIndependentOfGridSize) {
  const auto [rows, cols] = GetParam();
  CimMxuSpec spec;
  spec.grid_rows = rows;
  spec.grid_cols = cols;
  CimMxu mxu(spec, energy_, area_);
  // TOPS/W and TOPS/mm^2 are per-core properties; the grid preserves them.
  EXPECT_NEAR(mxu.tops_per_watt(ir::DType::kInt8, 1 * GHz), 7.26, 1e-6);
  EXPECT_NEAR(mxu.tops_per_mm2(1 * GHz), 1.31, 1e-6);
}

TEST_P(CimGridTest, UtilizationBoundedOnMixedShapes) {
  const auto [rows, cols] = GetParam();
  CimMxuSpec spec;
  spec.grid_rows = rows;
  spec.grid_cols = cols;
  CimMxu mxu(spec, energy_, area_);
  for (const GemmWorkload& w :
       {GemmWorkload{1, 128, 1280, 448, ir::DType::kInt8},
        GemmWorkload{8192, 7168, 7168, 1, ir::DType::kInt8},
        GemmWorkload{1024, 1024, 72, 128, ir::DType::kInt8}}) {
    const MxuCost cost = mxu.evaluate(w);
    EXPECT_GT(cost.utilization(), 0.0);
    EXPECT_LE(cost.utilization(), 1.0);
    EXPECT_GE(cost.busy_energy, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(TableIVGrids, CimGridTest,
                         ::testing::Values(std::pair{8, 8}, std::pair{16, 8},
                                           std::pair{16, 16}));

}  // namespace
}  // namespace cimtpu::cim
