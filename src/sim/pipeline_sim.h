#pragma once
// Discrete-event simulation of a double-buffered tile pipeline.
//
// The analytic simulator costs each operator as
//     max(compute, memory) + memory/tiles
// (steady-state overlap plus first-tile exposure).  This module simulates
// the same pipeline tile-by-tile — serialized DMA channel, serialized
// compute engine, bounded staging buffers — and is used by tests to bound
// the analytic formula's error to one tile quantum, and by paper_figures'
// ablation_buffering entry to explore buffer depths (single vs double buffering,
// i.e. the paper's "double buffering and memory coalescing" scheduling
// options).

#include "common/units.h"

namespace cimtpu::sim {

struct PipelineSimResult {
  Seconds total = 0;         ///< completion time of the last tile
  Seconds compute_idle = 0;  ///< engine stall waiting on tiles
};

/// Simulates `tiles` equal tiles whose aggregate compute / memory times are
/// given.  `buffer_depth` staging buffers bound how far the DMA can run
/// ahead (1 = no overlap, 2 = classic double buffering).
PipelineSimResult simulate_tile_pipeline(Seconds compute_total,
                                         Seconds memory_total, int tiles,
                                         int buffer_depth = 2);

}  // namespace cimtpu::sim
