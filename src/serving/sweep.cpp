#include "serving/sweep.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <limits>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "common/status.h"
#include "serving/cluster.h"

namespace cimtpu::serving {

namespace {

// Runs one sweep point: one engine when point.replicas == 0, otherwise an
// N-replica cluster of the point's deployment shape, flattened so cluster
// cells sit next to single-engine cells in one result table.
ServingMetrics run_point(const SweepPoint& point,
                         SharedStepCostCache* shared_costs) {
  const ServingScenario& scenario = point.scenario;
  if (point.replicas <= 0) {
    return run_serving(scenario, *point.requests, shared_costs);
  }
  ClusterConfig config;
  config.base = scenario;
  config.replicas.assign(
      static_cast<std::size_t>(point.replicas),
      ReplicaSpec{scenario.chips, scenario.tensor_parallel_ways});
  config.router_policy = point.router_policy;
  config.disaggregated = point.disaggregated;
  config.prefill_replicas = point.prefill_replicas;
  return flatten_cluster_metrics(
      run_serving_cluster(config, *point.requests, shared_costs));
}

// Failure-message prefix: the point's grid index and label.
std::string describe_point(const std::vector<SweepPoint>& points,
                           std::size_t i, const char* what) {
  std::ostringstream message;
  message << "sweep point " << i;
  if (!points[i].label.empty()) message << " (" << points[i].label << ')';
  message << ": " << what;
  return message.str();
}

// Non-numeric, trailing junk, overflow, and negative values are loud
// ConfigErrors: a silent fallback would defeat pinning the fan-out.
// Unset or "0" return 0 ("no opinion").
int parse_env_worker_count(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr) return 0;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(env, &end, 10);
  CIMTPU_CONFIG_CHECK(end != env && *end == '\0' && errno == 0 &&
                          parsed >= 0 &&
                          parsed <= std::numeric_limits<int>::max(),
                      name << "='" << env
                           << "' is not a valid worker count (expected a "
                              "non-negative integer)");
  return static_cast<int>(parsed);
}

// Advances `index` to the grid's next cell, last axis turning fastest;
// false once every combination has been visited.
bool next_cell(const std::vector<SweepAxis>& axes,
               std::vector<std::size_t>& index) {
  for (std::size_t a = axes.size(); a-- > 0;) {
    if (++index[a] < axes[a].labels.size()) return true;
    index[a] = 0;
  }
  return false;
}

}  // namespace

int resolve_sweep_threads(int requested, std::size_t num_points) {
  int threads = requested;
  if (threads <= 0) threads = parse_env_worker_count("CIMTPU_SWEEP_THREADS");
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  if (threads <= 0) threads = 1;
  if (num_points < 1) num_points = 1;
  return static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(threads), num_points));
}

std::vector<ServingMetrics> run_sweep(const std::vector<SweepPoint>& points,
                                      const SweepOptions& options) {
  for (const SweepPoint& point : points) {
    CIMTPU_CHECK(point.requests != nullptr);
  }
  std::vector<ServingMetrics> results(points.size());
  std::vector<std::exception_ptr> errors(points.size());
  SharedStepCostCache local_shared;
  SharedStepCostCache* shared_costs =
      options.shared_cache != nullptr ? options.shared_cache : &local_shared;

  // Work stealing: each worker claims the next unclaimed index.
  // results[i] is written only by the worker that claimed i, so no
  // synchronization beyond the claim counter is needed, and result order
  // is the grid order by construction.
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= points.size()) return;
      try {
        results[i] = run_point(points[i], shared_costs);
      } catch (const ConfigError& error) {
        errors[i] = std::make_exception_ptr(
            ConfigError(describe_point(points, i, error.what())));
      } catch (const InternalError& error) {
        errors[i] = std::make_exception_ptr(
            InternalError(describe_point(points, i, error.what())));
      } catch (...) {
        errors[i] = std::current_exception();  // preserved as-is
      }
    }
  };

  const int threads = resolve_sweep_threads(options.threads, points.size());
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    try {
      for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
    } catch (...) {
      // Thread spawn failed mid-pool (e.g. process thread limit): the
      // already-started workers drain the whole grid via the claim
      // counter, so join them — destroying a joinable thread would
      // std::terminate — then surface the spawn failure.
      for (std::thread& thread : pool) thread.join();
      throw;
    }
    for (std::thread& thread : pool) thread.join();
  }

  // Surface failures deterministically: the first failing point in grid
  // order, independent of worker interleaving.
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return results;
}

std::vector<SweepCellResult> run_serving_sweep(const ServingSweep& sweep,
                                               const SweepOptions& options) {
  CIMTPU_CONFIG_CHECK(!sweep.arrival_rates.empty(),
                      "sweep needs >= 1 arrival rate");
  for (double rate : sweep.arrival_rates) {
    CIMTPU_CONFIG_CHECK(rate > 0,
                        "arrival rate must be positive, got " << rate);
  }
  for (const SweepAxis& axis : sweep.axes) {
    CIMTPU_CONFIG_CHECK(!axis.labels.empty(),
                        "sweep axis '" << axis.name << "' has no values");
    CIMTPU_CONFIG_CHECK(axis.apply != nullptr,
                        "sweep axis '" << axis.name << "' has "
                                       << axis.labels.size()
                                       << " labels but no apply");
  }

  // One trace per arrival rate, shared across that rate's cells: traffic
  // depends only on the stream spec, never on the deployment under test.
  std::vector<std::vector<Request>> traces;
  traces.reserve(sweep.arrival_rates.size());  // stable point.requests
  std::vector<SweepPoint> points;
  std::vector<double> point_rates;
  std::set<std::string> sanitized_labels;
  for (double rate : sweep.arrival_rates) {
    RequestStreamConfig stream = sweep.stream;
    stream.arrival_rate = rate;
    traces.push_back(generate_requests(stream));
    std::vector<std::size_t> index(sweep.axes.size(), 0);
    do {
      SweepPoint point = sweep.base;
      std::ostringstream label;
      label << "rate=" << rate;
      for (std::size_t a = 0; a < sweep.axes.size(); ++a) {
        sweep.axes[a].apply(point, index[a]);
        label << ' ' << sweep.axes[a].name << '='
              << sweep.axes[a].labels[index[a]];
      }
      point.label = label.str();
      point.requests = &traces.back();
      const std::string sanitized = sanitize_trace_label(point.label);
      CIMTPU_CONFIG_CHECK(sanitized_labels.insert(sanitized).second,
                          "two sweep cells share the label '"
                              << sanitized << "' (from '" << point.label
                              << "'): their trace files would collide");
      // Traced grids write one file set per cell, named after the cell.
      TraceConfig& trace = point.scenario.trace;
      if ((trace.enabled || trace.sample_interval > 0) && !trace.dir.empty()) {
        trace.label += "." + sanitized;
      }
      points.push_back(std::move(point));
      point_rates.push_back(rate);
    } while (next_cell(sweep.axes, index));
  }

  std::vector<ServingMetrics> results = run_sweep(points, options);
  std::vector<SweepCellResult> cells(points.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cells[i].arrival_rate = point_rates[i];
    cells[i].point = std::move(points[i]);
    cells[i].point.requests = nullptr;  // the traces die with this frame
    cells[i].metrics = std::move(results[i]);
  }
  return cells;
}

}  // namespace cimtpu::serving
