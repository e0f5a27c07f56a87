#pragma once
// Chip comparison report: renders two TpuChips' peak throughput, MXU area
// and MXU power side by side as human-readable text (used by quickstart).

#include <string>

#include "arch/chip.h"

namespace cimtpu::arch {

/// Renders a side-by-side comparison of two chips (baseline vs candidate)
/// with ratio annotations on area and power rows.
std::string chip_comparison(const TpuChip& baseline, const TpuChip& candidate);

}  // namespace cimtpu::arch
