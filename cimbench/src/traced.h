#pragma once
// The traced run: per-layer metrics for one workload, timed from outside
// each layer's public functions.
//
// One traced pass over a workload does, in order:
//   1. set-up with a span around every generate_requests call;
//   2. every point once, serially, with spans around ServingEngine
//      construct / inject / drain / finish (run_serving_cluster for
//      cluster cells);
//   3. the same points untraced, serially, and at the workload's thread
//      count (run_sweep), for the sweep rows and the tracing overhead; a
//      workload without cluster cells also runs every point as a
//      1-replica cluster, so the cluster layer is timed on every workload;
//   4. a replay that drives ContinuousBatchScheduler::next_step and
//      cost_step directly on each single-engine point's own requests;
//   5. direct calls of run_decode_layer / run_prefill_layer and of each
//      chip's MXU evaluate() on every chip configuration the workload
//      uses, plus the canonical chip of an MXU kind it lacks.
// Steps 2 and 3 must give bit-identical simulated outputs.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace cimbench {

/// Per-layer metric names and units, in output order.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

struct TracedPass {
  std::map<std::string, double> values;  ///< one entry per per_layer_metrics()
  std::int64_t attempted = 0;  ///< requests replayed by the engine runs
  std::int64_t failed = 0;     ///< of those, not completed
  std::string error;           ///< "" when every correctness check held
  SpanRecorder spans;
};

/// Runs one traced pass over `name` at `seed` (see the header comment).
TracedPass run_traced_pass(const std::string& name, std::uint64_t seed,
                           int threads, int scale);

}  // namespace cimbench
