#pragma once
// Two-level GEMM tiling search (paper Fig. 5): a [L, D] x [D, D] operator
// is partitioned into [LtileM, DtileK] x [DtileK, DtileN] sub-tiles that
// fit the double-buffered VMEM working set, and the mapping engine picks
// the tiling that minimizes data movement.
//
// The classic tiled-GEMM traffic model: with tiles (Tm, Tk, Tn),
//   * the moving operand A [m, k] is re-read once per N-tile column,
//   * the stationary operand W [k, n] is re-read once per M-tile row,
//   * the output C [m, n] is revisited once per K-tile (partial sums),
// and the working set Tm*Tk + Tk*Tn + Tm*Tn must fit half of VMEM
// (the other half holds the incoming double buffer).

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "ir/op.h"

namespace cimtpu::mapping {

struct TileChoice {
  std::int64_t tm = 0;
  std::int64_t tk = 0;
  std::int64_t tn = 0;

  Bytes working_set = 0;   ///< bytes resident in VMEM at once
  Bytes vmem_traffic = 0;  ///< total bytes through VMEM incl. re-reads
  double reuse_factor = 0; ///< compulsory bytes / vmem_traffic (<= 1)

  std::int64_t m_tiles = 0;
  std::int64_t k_tiles = 0;
  std::int64_t n_tiles = 0;
  std::int64_t total_tiles() const { return m_tiles * k_tiles * n_tiles; }
};

/// Share of VMEM a tile's working set may use; double buffering reserves
/// the rest.
inline constexpr double kTileBufferFraction = 0.5;
static_assert(kTileBufferFraction > 0 && kTileBufferFraction <= 1.0,
              "the working set needs a share of VMEM");

/// Tile-size granularity per dimension: M by 8 rows, K and N by the MXU's
/// 128-wide contraction and output extents.
inline constexpr std::int64_t kTileQuantumM = 8;
inline constexpr std::int64_t kTileQuantumK = 128;
inline constexpr std::int64_t kTileQuantumN = 128;

/// Compulsory (minimum possible) VMEM traffic for a GEMM: every operand
/// byte moves exactly once.
Bytes compulsory_traffic(const ir::Op& matmul);

/// Evaluates one candidate tiling (no search).
TileChoice evaluate_tiling(const ir::Op& matmul, std::int64_t tm,
                           std::int64_t tk, std::int64_t tn);

/// Searches the quantized tile space and returns the traffic-minimal legal
/// tiling for a `vmem_capacity`-byte VMEM.  Throws ConfigError when even
/// the smallest tile cannot fit.
TileChoice best_tiling(const ir::Op& matmul, Bytes vmem_capacity);

/// All candidates evaluated by the search whose working set fits
/// `vmem_capacity`, for inspection/tests.
std::vector<TileChoice> enumerate_tilings(const ir::Op& matmul,
                                          Bytes vmem_capacity);

}  // namespace cimtpu::mapping
