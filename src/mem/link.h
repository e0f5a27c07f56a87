#pragma once
// Inter-chip interconnect (ICI) links and ring collectives.
//
// TPUv4i exposes two ICI links per chip at 100 GB/s each; multi-chip
// deployments connect chips in a ring (paper Sec. V-B).  The collective
// model follows the standard ring algorithm costs used by Megatron-style
// tensor parallelism.

#include "common/units.h"
#include "tech/energy_model.h"

namespace cimtpu::mem {

struct IciLinkSpec {
  int links_per_chip = 2;
  BytesPerSecond bandwidth_per_link = 100 * GBps;
  Seconds hop_latency = 1.0 * us;  ///< per-message software+SerDes latency
};

/// Cost model for ring collectives across `chips` devices.
class IciFabric {
 public:
  IciFabric(IciLinkSpec spec, const tech::EnergyModel& energy);

  /// Time for a ring all-reduce of `bytes` per chip.
  /// Standard cost: 2 * (p-1)/p * bytes / link_bw (+ latency per step).
  Seconds all_reduce_time(Bytes bytes, int chips) const;

  /// Time for a point-to-point transfer of `bytes` between ring neighbours
  /// (pipeline-parallel activation handoff).
  Seconds p2p_time(Bytes bytes) const;

  /// Energy for a point-to-point transfer.
  Joules p2p_energy(Bytes bytes) const;

 private:
  IciLinkSpec spec_;
  const tech::EnergyModel* energy_;
};

}  // namespace cimtpu::mem
