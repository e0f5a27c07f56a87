#pragma once
// The paper-claims tests assert each reproduced figure inside a documented
// tolerance band (EXPERIMENTS.md records the bands).

namespace cimtpu {

/// True when `measured` lies within [lo, hi] (inclusive band).
inline bool within_band(double measured, double lo, double hi) {
  return measured >= lo && measured <= hi;
}

}  // namespace cimtpu
