#pragma once
// Chip summary reports: renders a TpuChip's configuration, area budget and
// power envelope as human-readable text (used by quickstart) and
// as key-value pairs (used by tooling).

#include <string>
#include <vector>

#include "arch/chip.h"

namespace cimtpu::arch {

/// One figure in the chip summary.
struct ChipFigure {
  std::string name;
  std::string value;
};

/// All summary figures: identity, peak throughput, memory system, area
/// budget per block, leakage/idle/peak power.
std::vector<ChipFigure> chip_figures(const TpuChip& chip);

/// Renders the figures as an aligned text block.
std::string chip_summary(const TpuChip& chip);

/// Renders a side-by-side comparison of two chips (baseline vs candidate)
/// with ratio annotations on area and power rows.
std::string chip_comparison(const TpuChip& baseline, const TpuChip& candidate);

}  // namespace cimtpu::arch
