#pragma once
// Abstract matrix multiply unit (MXU).
//
// Both the baseline digital systolic array and the CIM-MXU implement this
// interface.  `evaluate` costs a (possibly batched) GEMM assigned to ONE
// unit; distributing an operator across the TensorCore's multiple MXUs is
// the mapping engine's job.

#include <memory>
#include <string>

#include "common/units.h"
#include "ir/dtype.h"
#include "tech/area_model.h"
#include "tech/energy_model.h"

namespace cimtpu::systolic {

/// A batched GEMM as seen by one matrix unit: `instances` independent
/// [m, k] x [k, n] products, each with its own stationary operand.
struct GemmWorkload {
  std::int64_t m = 0;
  std::int64_t k = 0;
  std::int64_t n = 0;
  std::int64_t instances = 1;
  ir::DType dtype = ir::DType::kInt8;
};

/// Cost of running a GemmWorkload to completion on one matrix unit.
struct MxuCost {
  Cycles busy_cycles = 0;        ///< cycles the unit is architecturally busy
  double useful_macs = 0;        ///< true (unpadded) MAC count
  double occupied_mac_slots = 0; ///< busy_cycles * macs_per_cycle
  Bytes stationary_bytes_loaded = 0;  ///< weight/K/V bytes ingested (padded)
  Joules busy_energy = 0;        ///< MAC + bubble + weight-ingest energy

  /// Utilization of the array while busy.
  double utilization() const {
    return occupied_mac_slots > 0 ? useful_macs / occupied_mac_slots : 0.0;
  }
};

class MatrixUnit {
 public:
  virtual ~MatrixUnit() = default;

  virtual std::string name() const = 0;

  /// Peak MAC throughput of this unit.
  virtual double macs_per_cycle() const = 0;

  /// Silicon area of the unit.
  virtual SquareMm area() const = 0;

  /// Leakage power (always burned).
  virtual Watts leakage_power() const = 0;

  /// Dynamic power at 100% utilization for `dtype`.
  virtual Watts peak_dynamic_power(ir::DType dtype) const = 0;

  /// Dynamic power burned while the unit is architecturally idle.
  virtual Watts idle_power(ir::DType dtype) const = 0;

  /// Costs the given workload on this unit.
  virtual MxuCost evaluate(const GemmWorkload& workload) const = 0;

  // --- Derived figures of merit (Table II) -----------------------------------
  /// Peak throughput in ops/s at `clock`.
  double peak_ops_per_second(Hertz clock) const {
    return macs_per_cycle() * 2.0 * clock;
  }
  /// TOPS/W at full utilization (dynamic power, matching post-P&R power
  /// reports at nominal activity; leakage is reported separately).
  double tops_per_watt(ir::DType dtype, Hertz clock) const {
    return peak_ops_per_second(clock) / 1e12 / peak_dynamic_power(dtype);
  }
  /// TOPS/mm² at `clock`.
  double tops_per_mm2(Hertz clock) const {
    return peak_ops_per_second(clock) / 1e12 / area();
  }
};

using MatrixUnitPtr = std::unique_ptr<MatrixUnit>;

}  // namespace cimtpu::systolic
