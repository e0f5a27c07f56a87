#include "cim/cim_mxu.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"
#include "common/status.h"
#include "tech/calibration.h"

namespace cimtpu::cim {

void CimMxuSpec::validate() const {
  CIMTPU_CONFIG_CHECK(grid_rows > 0 && grid_cols > 0,
                      "CIM grid dims must be positive: " << grid_rows << "x"
                                                         << grid_cols);
  CIMTPU_CONFIG_CHECK(core_rows > 0 && core_cols > 0,
                      "CIM core dims must be positive");
  CIMTPU_CONFIG_CHECK(core_macs_per_cycle > 0,
                      "core_macs_per_cycle must be positive");
  CIMTPU_CONFIG_CHECK(weight_io_bytes_per_cycle > 0,
                      "weight_io_bytes_per_cycle must be positive");
}

CimMxu::CimMxu(CimMxuSpec spec, const tech::EnergyModel& energy,
               const tech::AreaModel& area)
    : spec_(spec), energy_(&energy) {
  spec_.validate();
  area_mm2_ = area.cim_mxu(spec_.grid_rows, spec_.grid_cols, spec_.core_rows,
                           spec_.core_cols);
}

std::string CimMxu::name() const {
  return "cim-" + std::to_string(spec_.grid_rows) + "x" +
         std::to_string(spec_.grid_cols);
}

double CimMxu::macs_per_cycle() const {
  return spec_.cores() * spec_.core_macs_per_cycle;
}

SquareMm CimMxu::area() const { return area_mm2_; }

Watts CimMxu::leakage_power() const {
  return area_mm2_ * energy_->cim_leakage_per_mm2();
}

Watts CimMxu::peak_dynamic_power(ir::DType dtype) const {
  return macs_per_cycle() * energy_->cim_mac(dtype) *
         energy_->node().nominal_clock;
}

Watts CimMxu::idle_power(ir::DType dtype) const {
  return peak_dynamic_power(dtype) * tech::cal::kCimIdleActivity;
}

systolic::MxuCost CimMxu::evaluate(const systolic::GemmWorkload& w) const {
  CIMTPU_CHECK_MSG(w.m > 0 && w.k > 0 && w.n > 0 && w.instances > 0,
                   "invalid GEMM workload m=" << w.m << " k=" << w.k
                                              << " n=" << w.n);
  const double bytes_per_elem = ir::dtype_bytes(w.dtype);
  const double k_tiles =
      static_cast<double>(ceil_div<std::int64_t>(w.k, spec_.core_rows));
  // Output channels are bank-granular: banks whose 8-column group holds no
  // live output are read-gated and skipped by the bit-serial scan, so a
  // narrow-N tile (e.g. DiT's d_head = 72) does not pay for the full
  // 256-column core.
  const double padded_n = static_cast<double>(
      round_up<std::int64_t>(w.n, tech::cal::kCimBankColumns));
  const double n_tiles =
      static_cast<double>(ceil_div<std::int64_t>(w.n, spec_.core_cols));
  const double tasks = static_cast<double>(w.instances) * k_tiles * n_tiles;
  // Fractional rounds: the mapping engine splits m across the remainder
  // cores of the last round, so round count is not quantized to integers.
  const double rounds = std::max(1.0, tasks / spec_.cores());

  // Aggregate compute: every (instance, k-tile) streams m input rows over
  // its live columns at core_macs_per_cycle per core, spread across all
  // cores; a single task cannot finish faster than one core processes it.
  const double core_cycles_total = static_cast<double>(w.instances) * k_tiles *
                                   w.m * spec_.core_rows * padded_n /
                                   spec_.core_macs_per_cycle;
  // When tasks underfill the grid, weight tiles are REPLICATED into the
  // spare cores and m splits across the replicas (extra weight writes ride
  // the overlapped weight I/O).  m = 1 cannot be split further.  N-tiles
  // are balanced (e.g. 288 columns split 144+144, not 256+32) so the
  // widest tile does not bottleneck the round.
  const double balanced_cols = std::min(
      static_cast<double>(spec_.core_cols),
      static_cast<double>(round_up<std::int64_t>(
          ceil_div<std::int64_t>(
              round_up<std::int64_t>(w.n, tech::cal::kCimBankColumns),
              static_cast<std::int64_t>(n_tiles)),
          tech::cal::kCimBankColumns)));
  const double single_task_cycles = static_cast<double>(w.m) *
                                    spec_.core_rows * balanced_cols /
                                    spec_.core_macs_per_cycle;
  const double replication = std::max(
      1.0, std::min(static_cast<double>(w.m),
                    std::floor(spec_.cores() / tasks)));
  const double compute_cycles = std::max(core_cycles_total / spec_.cores(),
                                         single_task_cycles / replication);

  // Aggregate weight-write through the dedicated per-core weight I/O,
  // overlapped with computation (simultaneous MAC + weight update).
  // Replicated tiles are written once per replica.
  const Bytes weight_bytes = static_cast<double>(w.instances) * k_tiles *
                             spec_.core_rows * padded_n * bytes_per_elem *
                             replication;
  const double write_cycles =
      weight_bytes / (spec_.cores() * spec_.weight_io_bytes_per_cycle);
  const double write_exposure = std::min(
      write_cycles / std::max(rounds, 1.0),
      spec_.core_rows * spec_.core_cols * bytes_per_elem /
          spec_.weight_io_bytes_per_cycle);

  // With the dedicated weight port, writes hide under compute (only the
  // first fill is exposed); without it (ablation) they serialize.
  const double compute_and_write =
      spec_.overlapped_weight_update
          ? std::max(compute_cycles, write_cycles) + write_exposure
          : compute_cycles + write_cycles;
  // Wave propagation across the grid per round plus bit-serial
  // re-alignment add a fractional overhead.
  const double busy =
      (compute_and_write + rounds * (spec_.grid_rows + spec_.grid_cols)) *
      (1.0 + tech::cal::kCimComputeOverheadFraction);

  systolic::MxuCost cost;
  cost.busy_cycles = busy;
  cost.useful_macs = static_cast<double>(w.instances) * w.m *
                     static_cast<double>(w.k) * w.n;
  cost.occupied_mac_slots = cost.busy_cycles * macs_per_cycle();
  cost.stationary_bytes_loaded = weight_bytes;

  const Joules mac = energy_->cim_mac(w.dtype);
  const Joules idle_slot = energy_->cim_idle_slot(w.dtype);
  const double idle_slots =
      std::max(0.0, cost.occupied_mac_slots - cost.useful_macs);
  cost.busy_energy = cost.useful_macs * mac + idle_slots * idle_slot +
                     cost.stationary_bytes_loaded *
                         energy_->cim_weight_write_per_byte();
  return cost;
}

}  // namespace cimtpu::cim
