#include "tech/technology.h"

#include "common/status.h"

namespace cimtpu::tech {
namespace {

// First-order scaling of dynamic energy and area relative to 22 nm.
// Sources: ITRS/IRDS logic roadmaps and the scaling summaries in
// Jouppi et al. (TPUv4i, ISCA'21); numbers are representative, not
// foundry-exact — only ratios between evaluated designs matter because
// the paper scales baseline and CIM design to the same node.
constexpr struct {
  const char* name;
  double energy_scale;
  double area_scale;
  double leakage_scale;
  double clock_ghz;
} kNodes[] = {
    {"65nm", 3.60, 6.10, 0.45, 0.50},
    {"28nm", 1.40, 1.55, 0.85, 0.90},
    {"22nm", 1.00, 1.00, 1.00, 1.00},
    {"12nm", 0.55, 0.45, 1.30, 1.30},
    {"7nm", 0.35, 0.22, 1.60, 1.05},
};

}  // namespace

TechnologyNode node_by_name(const std::string& name) {
  for (const auto& n : kNodes) {
    if (name == n.name) {
      return TechnologyNode{n.name, n.energy_scale, n.area_scale,
                            n.leakage_scale, n.clock_ghz * GHz};
    }
  }
  throw ConfigError("unknown technology node: " + name +
                    " (supported: 65nm, 28nm, 22nm, 12nm, 7nm)");
}

TechnologyNode calibration_node() { return node_by_name("22nm"); }

}  // namespace cimtpu::tech
