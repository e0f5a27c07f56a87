#include "serving/sweep.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <limits>
#include <sstream>
#include <thread>
#include <utility>

#include "common/status.h"
#include "serving/cluster.h"

namespace cimtpu::serving {

namespace {

// Runs one sweep point: single-engine when point.replicas == 0 (the
// pre-cluster path, untouched), otherwise an N-replica cluster of the
// cell's deployment shape, flattened so cluster cells sit next to
// single-engine cells in one result table.
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

// Hardened environment count parsing: non-numeric, trailing junk,
// overflow, and negative values are all loud ConfigErrors — a malformed
// value silently falling back to a default worker count would defeat the
// knob's whole purpose (pinning the fan-out).  Unset or "0" return 0
// ("no opinion").
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

void ServingSweep::validate() const {
  CIMTPU_CONFIG_CHECK(!arrival_rates.empty(), "sweep needs >= 1 arrival rate");
  CIMTPU_CONFIG_CHECK(!models.empty(), "sweep needs >= 1 model");
  CIMTPU_CONFIG_CHECK(!chip_counts.empty(), "sweep needs >= 1 chip count");
  CIMTPU_CONFIG_CHECK(!policies.empty(), "sweep needs >= 1 policy");
  CIMTPU_CONFIG_CHECK(!admission_policies.empty(),
                      "sweep needs >= 1 admission policy");
  CIMTPU_CONFIG_CHECK(!kv_block_tokens.empty(),
                      "sweep needs >= 1 kv_block_tokens value");
  CIMTPU_CONFIG_CHECK(!prefix_caching.empty(),
                      "sweep needs >= 1 prefix_caching value");
  for (double rate : arrival_rates) {
    CIMTPU_CONFIG_CHECK(rate > 0, "arrival rate must be positive");
  }
  for (std::int64_t block : kv_block_tokens) {
    CIMTPU_CONFIG_CHECK(block >= 0,
                        "kv_block_tokens axis values must be >= 0 (0 = "
                        "inherit base), got " << block);
  }
  for (int caching : prefix_caching) {
    CIMTPU_CONFIG_CHECK(caching >= -1 && caching <= 1,
                        "prefix_caching axis values must be -1 (inherit), "
                        "0 (off), or 1 (on), got " << caching);
  }
  CIMTPU_CONFIG_CHECK(!fault_rates.empty(),
                      "sweep needs >= 1 fault_rates value");
  CIMTPU_CONFIG_CHECK(!fault_recovery.empty(),
                      "sweep needs >= 1 fault_recovery value");
  for (double rate : fault_rates) {
    CIMTPU_CONFIG_CHECK(rate == -1 || rate >= 0,
                        "fault_rates axis values must be -1 (inherit) or a "
                        ">= 0 rate scale, got " << rate);
  }
  for (int recovery : fault_recovery) {
    CIMTPU_CONFIG_CHECK(recovery >= -1 && recovery <= 1,
                        "fault_recovery axis values must be -1 (inherit), "
                        "0 (off), or 1 (on), got " << recovery);
  }
  CIMTPU_CONFIG_CHECK(!replicas.empty(), "sweep needs >= 1 replicas value");
  CIMTPU_CONFIG_CHECK(!router_policies.empty(),
                      "sweep needs >= 1 router policy");
  CIMTPU_CONFIG_CHECK(!disaggregation.empty(),
                      "sweep needs >= 1 disaggregation value");
  for (int count : replicas) {
    CIMTPU_CONFIG_CHECK(count >= 0,
                        "replicas axis values must be >= 0 (0 = single "
                        "engine), got " << count);
  }
  for (int mode : disaggregation) {
    CIMTPU_CONFIG_CHECK(mode >= -1 && mode <= 1,
                        "disaggregation axis values must be -1 (inherit), "
                        "0 (colocated), or 1 (disaggregated), got " << mode);
  }
  CIMTPU_CONFIG_CHECK(cluster_prefill_replicas >= 1,
                      "cluster_prefill_replicas must be >= 1, got "
                          << cluster_prefill_replicas);
}

std::vector<SweepCellResult> run_serving_sweep(const ServingSweep& sweep,
                                               const SweepOptions& options) {
  sweep.validate();

  // One trace per arrival rate, shared across that rate's cells: traffic
  // depends only on the stream spec, never on the deployment under test.
  std::vector<std::vector<Request>> traces;
  traces.reserve(sweep.arrival_rates.size());
  for (double rate : sweep.arrival_rates) {
    RequestStreamConfig stream = sweep.stream;
    stream.arrival_rate = rate;
    traces.push_back(generate_requests(stream));
  }

  std::vector<SweepPoint> points;
  std::vector<SweepCellResult> cells;
  const std::size_t grid_size =
      sweep.arrival_rates.size() * sweep.models.size() *
      sweep.chip_counts.size() * sweep.policies.size() *
      sweep.admission_policies.size() * sweep.kv_block_tokens.size() *
      sweep.prefix_caching.size() * sweep.fault_rates.size() *
      sweep.fault_recovery.size() * sweep.replicas.size() *
      sweep.router_policies.size() * sweep.disaggregation.size();
  points.reserve(grid_size);
  cells.reserve(grid_size);
  for (std::size_t r = 0; r < sweep.arrival_rates.size(); ++r) {
    for (const models::TransformerConfig& model : sweep.models) {
      for (int chips : sweep.chip_counts) {
        for (EvictionPolicy policy : sweep.policies) {
          for (const std::string& admission : sweep.admission_policies) {
            for (std::int64_t block_axis : sweep.kv_block_tokens) {
              for (int caching_axis : sweep.prefix_caching) {
               for (double fault_axis : sweep.fault_rates) {
                for (int recovery_axis : sweep.fault_recovery) {
                 for (int replica_axis : sweep.replicas) {
                  for (const std::string& router_axis :
                       sweep.router_policies) {
                   for (int disagg_axis : sweep.disaggregation) {
                // Sentinels inherit the base scenario's paged-KV knobs so
                // grids that never mention the new axes expand unchanged.
                const std::int64_t block =
                    block_axis == 0 ? sweep.base.scheduler.kv_block_tokens
                                    : block_axis;
                const bool caching =
                    caching_axis < 0
                        ? sweep.base.scheduler.enable_prefix_cache
                        : caching_axis > 0;
                SweepPoint point;
                point.scenario = sweep.base;
                point.scenario.model = model;
                point.scenario.chips = chips;
                point.scenario.eviction = policy;
                point.scenario.scheduler.admission.policy = admission;
                point.scenario.scheduler.kv_block_tokens = block;
                point.scenario.scheduler.enable_prefix_cache = caching;
                // Resilience axes: a non-sentinel fault rate scales the
                // base storm's three process rates (0 turns the subsystem
                // off for the cell); a non-sentinel recovery value
                // overrides the recovery policy.
                if (fault_axis >= 0) {
                  point.scenario.fault.stall_rate_per_s *= fault_axis;
                  point.scenario.fault.kv_loss_rate_per_s *= fault_axis;
                  point.scenario.fault.device_failure_rate_per_s *= fault_axis;
                  if (fault_axis == 0) point.scenario.fault.enabled = false;
                }
                if (recovery_axis >= 0) {
                  point.scenario.fault.recovery_enabled = recovery_axis > 0;
                }
                // Cluster axes: the 0 / "" / -1 sentinels leave the point
                // on the single-engine path with pre-cluster labels.
                point.replicas = replica_axis;
                if (!router_axis.empty()) point.router_policy = router_axis;
                point.disaggregated = disagg_axis > 0;
                point.prefill_replicas = sweep.cluster_prefill_replicas;
                point.requests = &traces[r];
                std::ostringstream label;
                label << "rate=" << sweep.arrival_rates[r]
                      << " model=" << model.name << '/'
                      << ir::dtype_name(model.dtype) << " chips=" << chips
                      << " policy=" << eviction_policy_name(policy)
                      << " admission=" << admission << " block=" << block
                      << " prefix_cache=" << (caching ? "on" : "off");
                // Label segments appear only for non-sentinel resilience
                // cells, so pre-fault grids keep byte-identical labels.
                if (fault_axis >= 0) label << " fault_rate=" << fault_axis;
                if (recovery_axis >= 0) {
                  label << " recovery=" << (recovery_axis > 0 ? "on" : "off");
                }
                // Cluster segments likewise appear only on cluster cells.
                if (replica_axis > 0) label << " replicas=" << replica_axis;
                if (!router_axis.empty()) label << " router=" << router_axis;
                if (disagg_axis >= 0) {
                  label << " disagg=" << (disagg_axis > 0 ? "on" : "off");
                }
                point.label = label.str();
                // Traced grids write one file set per cell: derive each
                // point's trace label from its grid coordinates (base label
                // prefix kept) so cells never overwrite each other's files.
                if ((point.scenario.trace.enabled ||
                     point.scenario.trace.sample_interval > 0) &&
                    !point.scenario.trace.dir.empty()) {
                  point.scenario.trace.label =
                      point.scenario.trace.label + "." +
                      sanitize_trace_label(point.label);
                }
                SweepCellResult cell;
                cell.arrival_rate = sweep.arrival_rates[r];
                cell.model = model.name;
                cell.dtype = model.dtype;
                cell.chips = chips;
                cell.policy = policy;
                cell.admission = admission;
                cell.kv_block_tokens = block;
                cell.prefix_caching = caching;
                cell.fault_rate = fault_axis;
                cell.fault_recovery = recovery_axis;
                cell.replicas = replica_axis;
                if (replica_axis > 0) cell.router_policy = point.router_policy;
                cell.disaggregated = disagg_axis;
                cells.push_back(std::move(cell));
                points.push_back(std::move(point));
                   }
                  }
                 }
                }
               }
              }
            }
          }
        }
      }
    }
  }

  std::vector<ServingMetrics> results = run_sweep(points, options);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cells[i].metrics = std::move(results[i]);
  }
  return cells;
}

}  // namespace cimtpu::serving
