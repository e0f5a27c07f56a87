#pragma once
// Process-technology description and cross-node scaling.
//
// The paper implements both the digital MXU (Gemmini-generated, Cadence
// Genus/Innovus post-P&R) and the CIM-MXU at TSMC 22 nm, then scales both
// designs "to the same technology and frequency for fair performance and
// energy comparisons" against TPUv4i (7 nm).  We reproduce that flow: all
// component energies/areas are calibrated at 22 nm (see calibration.h) and
// scaled with the factors below when a chip config selects another node.

#include <string>

#include "common/units.h"

namespace cimtpu::tech {

/// A manufacturing process node with first-order scaling factors relative
/// to the 22 nm calibration node.  Factors follow published logic-scaling
/// surveys (energy ∝ CV², area ∝ transistor density).
struct TechnologyNode {
  std::string name;          ///< e.g. "TSMC22"
  double energy_scale = 1.0; ///< dynamic energy per op vs 22 nm
  double area_scale = 1.0;   ///< area per gate vs 22 nm
  double leakage_scale = 1.0;///< leakage power density vs 22 nm
  Hertz nominal_clock = 1.0 * GHz;  ///< typical shipping clock at this node
};

/// Returns the node descriptor for a supported process.
/// Supported names: "65nm", "28nm", "22nm", "12nm", "7nm".
/// Throws ConfigError for unknown nodes.
TechnologyNode node_by_name(const std::string& name);

/// The calibration node (TSMC 22 nm) used for all post-P&R reference data.
TechnologyNode calibration_node();

}  // namespace cimtpu::tech
