#pragma once
// Deterministic parallel sweep driver for serving traffic studies.
//
// run_sweep runs a flat list of (scenario, request trace) points on one
// in-process work-stealing thread pool.  ServingSweep builds such a list
// as data: arrival rate times a list of named axes, each a set of
// labelled values plus an `apply` that writes one value into a point, so
// a new sweepable knob is a caller-side lambda, not a field here.
//
// Guarantees: results[i] always corresponds to points[i], and every field
// ServingMetrics::for_each_field lists (cost-cache hit/miss counters
// included) is bit-identical to a serial (threads=1) run, whatever the
// worker count; only the host-time fields that table leaves out,
// sim_wall_seconds / steps_per_second, differ.
// Points share a SharedStepCostCache, so points with the same (chip
// config, model, bucket) signature reuse each other's per-layer costs.
// Thread count comes from SweepOptions::threads, CIMTPU_SWEEP_THREADS, or
// std::thread::hardware_concurrency(), in that precedence order.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serving/serving_sim.h"

namespace cimtpu::serving {

struct SweepOptions {
  /// Worker threads.  <= 0: use CIMTPU_SWEEP_THREADS if set, else
  /// hardware_concurrency.  Clamped to the point count.
  int threads = 0;
  /// Optional caller-owned cache (must outlive run_sweep): lets SEPARATE
  /// sweeps over the same deployments reuse each other's computed costs.
  /// nullptr -> one internal cache per run_sweep call.
  SharedStepCostCache* shared_cache = nullptr;
};

/// Resolves the effective worker count (see SweepOptions::threads).
/// A malformed CIMTPU_SWEEP_THREADS (non-numeric, negative, past INT_MAX)
/// throws ConfigError instead of falling back to a default.
int resolve_sweep_threads(int requested, std::size_t num_points);

/// One sweep point: a deployment plus the (non-owning) trace it replays.
/// The trace must outlive run_sweep; points may share traces.  `label`
/// identifies the point in failure messages.
///
/// `replicas` > 0 makes the point a CLUSTER cell (serving/cluster.h): the
/// scenario becomes the per-replica prototype (its chips /
/// tensor_parallel_ways apply to EVERY replica), requests route through
/// `router_policy`, and the cell's metrics are the flattened cluster
/// rollup.  0 (the default) runs one engine via run_serving.
struct SweepPoint {
  std::string label;
  ServingScenario scenario;
  const std::vector<Request>* requests = nullptr;
  int replicas = 0;
  std::string router_policy = "round_robin";
  bool disaggregated = false;
  int prefill_replicas = 1;  ///< disaggregated cells only
};

/// Runs all points and returns their metrics in point order.  A point that
/// throws (e.g. an unservable request under the configured KV budget)
/// re-throws from here, prefixed with the point's label — the first
/// failing point in grid order wins, whatever order the workers ran in.
std::vector<ServingMetrics> run_sweep(const std::vector<SweepPoint>& points,
                                      const SweepOptions& options = {});

/// One deployment axis of a ServingSweep.  `labels[i]` names the axis's
/// i-th value in cell labels; `apply(point, i)` writes that value into a
/// cell's point, which starts as a copy of ServingSweep::base.
struct SweepAxis {
  std::string name;
  std::vector<std::string> labels;
  std::function<void(SweepPoint&, std::size_t)> apply;
};

/// Declarative grid: arrival rate outermost, then the cross product of
/// `axes` in list order (first axis outermost).  One request trace is
/// generated per arrival rate and shared by every cell at that rate, so
/// deployments compare on identical traffic.  A cell's label is
/// "rate=<r>" followed by " <name>=<label>" per axis.
struct ServingSweep {
  RequestStreamConfig stream;  ///< prototype; arrival_rate overridden
  std::vector<double> arrival_rates;
  SweepPoint base;  ///< prototype; label and requests set per cell
  std::vector<SweepAxis> axes;
};

/// One grid cell: its arrival rate, its expanded point (label, scenario,
/// cluster shape; `requests` is null — the traces are freed on return),
/// and its metrics.
struct SweepCellResult {
  double arrival_rate = 0;
  SweepPoint point;
  ServingMetrics metrics;
};

/// Expands the grid and runs it via run_sweep.  Results are in grid order
/// and bit-identical to serial execution.  Traced cells (trace enabled or
/// sampling, with a dir) write to "<base trace label>.<sanitized cell
/// label>".  Throws ConfigError on an empty rate list, a non-positive
/// rate, an axis without labels or apply, or two cells whose sanitized
/// labels collide (their trace files would overwrite each other).
std::vector<SweepCellResult> run_serving_sweep(
    const ServingSweep& sweep, const SweepOptions& options = {});

}  // namespace cimtpu::serving
