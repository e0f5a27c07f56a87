// Memory system and ICI fabric tests.

#include <gtest/gtest.h>

#include "mem/link.h"
#include "mem/memory.h"
#include "tech/technology.h"

namespace cimtpu::mem {
namespace {

class MemoryTest : public ::testing::Test {
 protected:
  MemoryTest()
      : energy_(tech::calibration_node()), memory_(MemorySystemSpec{}, energy_) {}
  tech::EnergyModel energy_;
  MemorySystem memory_;
};

TEST_F(MemoryTest, DefaultSpecMatchesTableI) {
  const MemorySystemSpec& spec = memory_.spec();
  EXPECT_DOUBLE_EQ(spec.vmem.capacity, 16 * MiB);
  EXPECT_DOUBLE_EQ(spec.cmem.capacity, 128 * MiB);
  EXPECT_DOUBLE_EQ(spec.hbm.capacity, 8 * GiB);
  EXPECT_DOUBLE_EQ(spec.hbm.bandwidth, 614 * GBps);
}

TEST_F(MemoryTest, AccessEnergyGrowsOutward) {
  const Bytes bytes = 1e6;
  EXPECT_GT(memory_.hbm_energy(bytes), memory_.cmem_energy(bytes));
  EXPECT_GT(memory_.cmem_energy(bytes), memory_.vmem_energy(bytes));
  EXPECT_NEAR(memory_.vmem_energy(2 * bytes), 2 * memory_.vmem_energy(bytes),
              1e-18);
}

TEST(MemorySpecTest, ValidationCatchesNonsense) {
  MemorySystemSpec spec;
  spec.vmem.capacity = 0;
  EXPECT_THROW(spec.validate(), ConfigError);

  MemorySystemSpec swapped;
  swapped.vmem.capacity = 256 * MiB;  // larger than CMEM
  EXPECT_THROW(swapped.validate(), ConfigError);
}

TEST(OverlapTest, DoubleBufferedSteadyState) {
  // Fully memory-bound: latency ~ memory + exposure.
  EXPECT_NEAR(overlap_double_buffered(1e-3, 10e-3, 10.0), 11e-3, 1e-9);
  // Fully compute-bound: memory hidden except first tile.
  EXPECT_NEAR(overlap_double_buffered(10e-3, 1e-3, 10.0), 10.1e-3, 1e-9);
}

TEST(OverlapTest, MoreTilesShrinkExposure) {
  const Seconds few = overlap_double_buffered(5e-3, 5e-3, 2.0);
  const Seconds many = overlap_double_buffered(5e-3, 5e-3, 100.0);
  EXPECT_GT(few, many);
}

// --- ICI fabric -----------------------------------------------------------------

class IciTest : public ::testing::Test {
 protected:
  IciTest() : energy_(tech::calibration_node()), fabric_(IciLinkSpec{}, energy_) {}
  tech::EnergyModel energy_;
  IciFabric fabric_;
};

TEST_F(IciTest, SingleChipAllReduceIsFree) {
  EXPECT_DOUBLE_EQ(fabric_.all_reduce_time(1e9, 1), 0.0);
}

TEST_F(IciTest, RingAllReduceFormula) {
  // 2(p-1)/p * bytes / effective_bw + 2(p-1) hops.
  const Bytes bytes = 1e9;
  const int chips = 4;
  const double effective_bw = 2 * 100e9;  // two links used
  const Seconds expected =
      2.0 * 3.0 / 4.0 * bytes / effective_bw + 6.0 * 1e-6;
  EXPECT_NEAR(fabric_.all_reduce_time(bytes, chips), expected, 1e-12);
}

TEST_F(IciTest, AllReduceTimeGrowsWithChips) {
  const Bytes bytes = 1e8;
  EXPECT_LT(fabric_.all_reduce_time(bytes, 2),
            fabric_.all_reduce_time(bytes, 4));
  EXPECT_LT(fabric_.all_reduce_time(bytes, 4),
            fabric_.all_reduce_time(bytes, 8));
}

TEST_F(IciTest, P2pIncludesLatencyAndBandwidth) {
  EXPECT_NEAR(fabric_.p2p_time(100e9 /* 1 s at link rate */), 1.0 + 1e-6,
              1e-9);
  EXPECT_DOUBLE_EQ(fabric_.p2p_time(0), 0.0);
}

TEST_F(IciTest, EnergyProportionalToTraffic) {
  EXPECT_NEAR(fabric_.p2p_energy(2e6), 2 * fabric_.p2p_energy(1e6), 1e-12);
}

TEST(IciSpecTest, InvalidSpecThrows) {
  tech::EnergyModel energy(tech::calibration_node());
  IciLinkSpec bad;
  bad.links_per_chip = 0;
  EXPECT_THROW(IciFabric(bad, energy), ConfigError);
}

}  // namespace
}  // namespace cimtpu::mem
