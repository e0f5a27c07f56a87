#include "systolic/systolic_mxu.h"

#include "common/math_util.h"
#include "common/status.h"
#include "tech/calibration.h"

namespace cimtpu::systolic {

void SystolicMxuSpec::validate() const {
  CIMTPU_CONFIG_CHECK(rows > 0 && cols > 0,
                      "systolic array dims must be positive: " << rows << "x"
                                                               << cols);
}

SystolicMxu::SystolicMxu(SystolicMxuSpec spec, const tech::EnergyModel& energy,
                         const tech::AreaModel& area)
    : spec_(spec), energy_(&energy) {
  spec_.validate();
  area_mm2_ = area.digital_array(spec_.rows, spec_.cols);
}

std::string SystolicMxu::name() const {
  return "systolic-" + std::to_string(spec_.rows) + "x" +
         std::to_string(spec_.cols) +
         (spec_.dataflow == Dataflow::kOutputStationary ? "-os" : "");
}

double SystolicMxu::macs_per_cycle() const {
  return static_cast<double>(spec_.rows) * spec_.cols;
}

SquareMm SystolicMxu::area() const { return area_mm2_; }

Watts SystolicMxu::leakage_power() const {
  return area_mm2_ * energy_->logic_leakage_per_mm2();
}

Watts SystolicMxu::peak_dynamic_power(ir::DType dtype) const {
  return macs_per_cycle() * energy_->digital_mac(dtype) *
         energy_->node().nominal_clock;
}

Watts SystolicMxu::idle_power(ir::DType dtype) const {
  return peak_dynamic_power(dtype) * tech::cal::kDigitalIdleActivity;
}

void SystolicMxu::fill_energy(const GemmWorkload& w, MxuCost& cost) const {
  const Joules mac = energy_->digital_mac(w.dtype);
  const Joules bubble = energy_->digital_bubble_slot(w.dtype);
  const double bubble_slots =
      std::max(0.0, cost.occupied_mac_slots - cost.useful_macs);
  cost.busy_energy = cost.useful_macs * mac + bubble_slots * bubble +
                     cost.stationary_bytes_loaded *
                         energy_->digital_weight_load_per_byte();
}

MxuCost SystolicMxu::evaluate_weight_stationary(const GemmWorkload& w) const {
  const double bytes_per_elem = ir::dtype_bytes(w.dtype);
  const double k_tiles =
      static_cast<double>(ceil_div<std::int64_t>(w.k, spec_.rows));
  const double n_tiles =
      static_cast<double>(ceil_div<std::int64_t>(w.n, spec_.cols));
  const double tiles = k_tiles * n_tiles;

  // Per-tile: serialized weight fill (rows cycles per byte-plane) + the m
  // input rows streaming through.  Ramp once per instance.
  const double weight_fill =
      spec_.rows * bytes_per_elem / tech::cal::kSystolicWeightRowsPerCycle;
  const double ramp = spec_.rows + spec_.cols - 2.0;
  const double cycles_per_instance =
      tiles * (weight_fill + static_cast<double>(w.m)) + ramp;

  MxuCost cost;
  cost.busy_cycles = static_cast<double>(w.instances) * cycles_per_instance;
  cost.useful_macs = static_cast<double>(w.instances) * w.m *
                     static_cast<double>(w.k) * w.n;
  cost.occupied_mac_slots = cost.busy_cycles * macs_per_cycle();
  cost.stationary_bytes_loaded = static_cast<double>(w.instances) * tiles *
                                 spec_.rows * spec_.cols * bytes_per_elem;
  fill_energy(w, cost);
  return cost;
}

MxuCost SystolicMxu::evaluate_output_stationary(const GemmWorkload& w) const {
  const double bytes_per_elem = ir::dtype_bytes(w.dtype);
  // Outputs stay in the PEs: the array holds an m x n output tile of
  // rows x cols results; inputs and weights both stream for k cycles per
  // tile (at byte-plane granularity), then the accumulated outputs drain.
  const double m_tiles =
      static_cast<double>(ceil_div<std::int64_t>(w.m, spec_.rows));
  const double n_tiles =
      static_cast<double>(ceil_div<std::int64_t>(w.n, spec_.cols));
  const double tiles = m_tiles * n_tiles;
  const double stream = static_cast<double>(w.k) * bytes_per_elem;
  const double drain = spec_.cols;  // results shift out column-wise
  const double ramp = spec_.rows + spec_.cols - 2.0;
  const double cycles_per_instance = tiles * (stream + drain) + ramp;

  MxuCost cost;
  cost.busy_cycles = static_cast<double>(w.instances) * cycles_per_instance;
  cost.useful_macs = static_cast<double>(w.instances) * w.m *
                     static_cast<double>(w.k) * w.n;
  cost.occupied_mac_slots = cost.busy_cycles * macs_per_cycle();
  // Weights re-stream once per M-tile row of output tiles.
  cost.stationary_bytes_loaded = static_cast<double>(w.instances) * m_tiles *
                                 static_cast<double>(w.k) * w.n *
                                 bytes_per_elem;
  fill_energy(w, cost);
  return cost;
}

MxuCost SystolicMxu::evaluate(const GemmWorkload& w) const {
  CIMTPU_CHECK_MSG(w.m > 0 && w.k > 0 && w.n > 0 && w.instances > 0,
                   "invalid GEMM workload m=" << w.m << " k=" << w.k
                                              << " n=" << w.n);
  return spec_.dataflow == Dataflow::kWeightStationary
             ? evaluate_weight_stationary(w)
             : evaluate_output_stationary(w);
}

}  // namespace cimtpu::systolic
