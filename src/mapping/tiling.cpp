#include "mapping/tiling.h"

#include <algorithm>

#include "common/math_util.h"
#include "common/status.h"

namespace cimtpu::mapping {
namespace {

/// Candidate tile extents for one dimension: quantized geometric sweep up
/// to the full extent (keeps the search O(dozens^3) instead of O(dim^3)).
std::vector<std::int64_t> candidate_extents(std::int64_t dim,
                                            std::int64_t quantum) {
  std::vector<std::int64_t> extents;
  for (std::int64_t extent = quantum; extent < dim; extent *= 2) {
    extents.push_back(extent);
  }
  extents.push_back(round_up(dim, quantum));
  // Also try the exact dimension when not quantum-aligned (no padding).
  if (dim % quantum != 0) extents.push_back(dim);
  std::sort(extents.begin(), extents.end());
  extents.erase(std::unique(extents.begin(), extents.end()), extents.end());
  return extents;
}

}  // namespace

Bytes compulsory_traffic(const ir::Op& matmul) {
  CIMTPU_CHECK_MSG(matmul.is_matmul(), "tiling a non-matmul op");
  return matmul.moving_bytes() + matmul.stationary_bytes() +
         matmul.output_bytes();
}

TileChoice evaluate_tiling(const ir::Op& matmul, std::int64_t tm,
                           std::int64_t tk, std::int64_t tn) {
  CIMTPU_CHECK_MSG(matmul.is_matmul(), "tiling a non-matmul op");
  CIMTPU_CHECK_MSG(tm > 0 && tk > 0 && tn > 0, "tile extents must be positive");
  const double elem = ir::dtype_bytes(matmul.dtype);
  const double m = static_cast<double>(matmul.m);
  const double k = static_cast<double>(matmul.k);
  const double n = static_cast<double>(matmul.n);
  const double instances = static_cast<double>(matmul.instances);

  TileChoice choice;
  choice.tm = std::min<std::int64_t>(tm, matmul.m);
  choice.tk = std::min<std::int64_t>(tk, matmul.k);
  choice.tn = std::min<std::int64_t>(tn, matmul.n);
  choice.m_tiles = ceil_div(matmul.m, choice.tm);
  choice.k_tiles = ceil_div(matmul.k, choice.tk);
  choice.n_tiles = ceil_div(matmul.n, choice.tn);

  choice.working_set =
      (static_cast<double>(choice.tm) * choice.tk +
       static_cast<double>(choice.tk) * choice.tn +
       static_cast<double>(choice.tm) * choice.tn) *
      elem;

  const double a_traffic =
      m * k * static_cast<double>(choice.n_tiles) * elem;
  const double w_traffic =
      k * n * static_cast<double>(choice.m_tiles) * elem;
  // Output partial sums revisit VMEM once per extra K-tile (read+write).
  const double c_traffic =
      m * n * (1.0 + 2.0 * (static_cast<double>(choice.k_tiles) - 1.0)) *
      elem;
  choice.vmem_traffic = instances * (a_traffic + w_traffic + c_traffic);
  choice.reuse_factor = compulsory_traffic(matmul) / choice.vmem_traffic;
  return choice;
}

std::vector<TileChoice> enumerate_tilings(const ir::Op& matmul,
                                          Bytes vmem_capacity) {
  const Bytes budget = vmem_capacity * kTileBufferFraction;
  std::vector<TileChoice> legal;
  for (std::int64_t tm : candidate_extents(matmul.m, kTileQuantumM)) {
    for (std::int64_t tk : candidate_extents(matmul.k, kTileQuantumK)) {
      for (std::int64_t tn : candidate_extents(matmul.n, kTileQuantumN)) {
        const TileChoice choice = evaluate_tiling(matmul, tm, tk, tn);
        if (choice.working_set <= budget) legal.push_back(choice);
      }
    }
  }
  return legal;
}

TileChoice best_tiling(const ir::Op& matmul, Bytes vmem_capacity) {
  const std::vector<TileChoice> legal =
      enumerate_tilings(matmul, vmem_capacity);
  CIMTPU_CONFIG_CHECK(!legal.empty(),
                      "no legal tiling for op '"
                          << matmul.name << "' within "
                          << vmem_capacity * kTileBufferFraction
                          << " bytes of VMEM");
  const auto best = std::min_element(
      legal.begin(), legal.end(), [](const TileChoice& a, const TileChoice& b) {
        if (a.vmem_traffic != b.vmem_traffic) {
          return a.vmem_traffic < b.vmem_traffic;
        }
        // Tie-break: fewer tiles (less control overhead).
        return a.total_tiles() < b.total_tiles();
      });
  return *best;
}

}  // namespace cimtpu::mapping
