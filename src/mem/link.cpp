#include "mem/link.h"

#include "common/status.h"

namespace cimtpu::mem {

IciFabric::IciFabric(IciLinkSpec spec, const tech::EnergyModel& energy)
    : spec_(spec), energy_(&energy) {
  CIMTPU_CONFIG_CHECK(spec_.links_per_chip > 0 && spec_.bandwidth_per_link > 0,
                      "invalid ICI spec");
  CIMTPU_CONFIG_CHECK(spec_.hop_latency >= 0,
                      "ICI hop_latency must be >= 0, got " << spec_.hop_latency);
}

Seconds IciFabric::all_reduce_time(Bytes bytes, int chips) const {
  CIMTPU_CHECK_MSG(chips >= 1, "all_reduce needs >=1 chip, got " << chips);
  if (chips == 1 || bytes <= 0) return 0.0;
  // Ring all-reduce: 2*(p-1) steps, each moving bytes/p per chip.  In a
  // bidirectional ring both links carry traffic, doubling throughput.
  const double p = chips;
  const BytesPerSecond effective_bw =
      spec_.bandwidth_per_link * std::min(spec_.links_per_chip, 2);
  const Seconds transfer = 2.0 * (p - 1.0) / p * bytes / effective_bw;
  const Seconds latency = 2.0 * (p - 1.0) * spec_.hop_latency;
  return transfer + latency;
}

Seconds IciFabric::p2p_time(Bytes bytes) const {
  if (bytes <= 0) return 0.0;
  return spec_.hop_latency + bytes / spec_.bandwidth_per_link;
}

Joules IciFabric::p2p_energy(Bytes bytes) const {
  if (bytes <= 0) return 0.0;
  return bytes * energy_->ici_per_byte();
}

}  // namespace cimtpu::mem
