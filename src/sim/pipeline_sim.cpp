#include "sim/pipeline_sim.h"

#include <algorithm>
#include <vector>

#include "common/status.h"

namespace cimtpu::sim {

PipelineSimResult simulate_tile_pipeline(Seconds compute_total,
                                         Seconds memory_total, int tiles,
                                         int buffer_depth) {
  CIMTPU_CHECK_MSG(tiles > 0, "pipeline needs >= 1 tile");
  CIMTPU_CHECK_MSG(buffer_depth >= 1, "need >= 1 staging buffer");
  CIMTPU_CHECK_MSG(compute_total >= 0 && memory_total >= 0,
                   "negative pipeline times");

  const Seconds load_time = memory_total / tiles;
  const Seconds compute_time = compute_total / tiles;

  // compute_end[i] for the sliding window needed by the buffer constraint.
  std::vector<Seconds> compute_end(tiles, 0);
  Seconds dma_free = 0;  // when the DMA channel finishes its previous load
  Seconds engine_free = 0;
  Seconds engine_idle = 0;

  for (int i = 0; i < tiles; ++i) {
    // The load of tile i may not start until its staging buffer is free:
    // tile i - buffer_depth must have been consumed.
    Seconds buffer_free = 0;
    if (i >= buffer_depth) buffer_free = compute_end[i - buffer_depth];
    const Seconds load_start = std::max(dma_free, buffer_free);
    const Seconds load_end = load_start + load_time;
    dma_free = load_end;

    const Seconds compute_start = std::max(engine_free, load_end);
    engine_idle += compute_start - engine_free;
    compute_end[i] = compute_start + compute_time;
    engine_free = compute_end[i];
  }

  PipelineSimResult result;
  result.total = engine_free;
  result.compute_idle = engine_idle;
  return result;
}

}  // namespace cimtpu::sim
