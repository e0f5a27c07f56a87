// Request-level serving traffic: replays stochastic request streams
// through continuous batching on the simulated TPU, prints the serving
// studies (serving/studies.h) at the chosen model and seed, then a traced
// replay of the prefix-cache point reconciled against its metrics.
// --fault-storm adds the fault-storm study; --cluster adds a per-replica
// breakdown of one prefix-affinity cluster and the router and
// disaggregation studies.
//
//   ./serving_traffic [model] [requests] [rate_req_s] [seed] [process] [dtype]
//                     [--trace-dir <dir>] [--fault-storm] [--cluster]
//   ./serving_traffic --bench-json <path> [--trace-dir <dir>]
//
// --bench-json runs the fixed perf-baseline grid instead (llama2-7b INT4,
// 2,000 zipf-chat requests at 20 req/s, seed 42; baseline at 5/10/20 req/s,
// fault rates 0.5/1.0, every study on), prints it as above and writes it to
// <path> as BENCH_serving.json (schema_version 12): one block per study, plus
//   "observability" — the traced replay's event counts, trace-vs-metrics
//                     reconciliation, time-series samples and registry.
// Every value in it is simulated, so the file is byte-identical from run to
// run and across worker counts; simulator speed is measured by cimbench.
//
// stdout and the --trace-dir files (Perfetto and JSONL) are deterministic
// for a seed, whatever CIMTPU_SWEEP_THREADS says.  Bad input (a bad flag or
// argument, a bad CIMTPU_SWEEP_THREADS, a --bench-json path that cannot be
// written) prints one "serving_traffic: <message>" line to stderr and
// exits 2.

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/table.h"
#include "common/units.h"
#include "ir/dtype.h"
#include "models/model_zoo.h"
#include "serving/cluster.h"
#include "serving/kv_cache_manager.h"
#include "serving/studies.h"
#include "serving/trace.h"
#include "serving/traffic_profiles.h"

using namespace cimtpu;

namespace {

using serving::StudyKind;
using Cells = std::vector<serving::SweepCellResult>;

long long lld(std::int64_t value) { return value; }

// Strict parsing: the whole argument must parse (no atof-style silent 0
// for "abc"), or a ConfigError names it.
double parse_double(const char* arg, const char* what) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(arg, &end);
  CIMTPU_CONFIG_CHECK(
      end != arg && *end == '\0' && errno == 0 && std::isfinite(value),
      what << " '" << arg << "' is not a finite number");
  return value;
}

std::int64_t parse_int(const char* arg, const char* what) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(arg, &end, 10);
  CIMTPU_CONFIG_CHECK(end != arg && *end == '\0' && errno == 0,
                      what << " '" << arg << "' is not an integer");
  return value;
}

std::uint64_t parse_seed(const char* arg) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(arg, &end, 10);
  // strtoull wraps a leading '-', so demand a digit first.
  CIMTPU_CONFIG_CHECK(std::isdigit(static_cast<unsigned char>(arg[0])) &&
                          *end == '\0' && errno == 0,
                      "seed '" << arg << "' is not a non-negative integer");
  return value;
}

/// Prints the per-row lines some studies show above their table (false: none).
bool print_row_notes(StudyKind kind, const Cells& cells) {
  for (const serving::SweepCellResult& cell : cells) {
    const serving::ServingMetrics& m = cell.metrics;
    const serving::ServingScenario& scenario = cell.point.scenario;
    switch (kind) {
      case StudyKind::kBaseline:
        std::printf(
            "chips=%d: completed %lld/%lld requests (%lld tokens) over %s "
            "simulated; cost cache %zu shapes (%lld hits / %lld misses)\n",
            scenario.chips, lld(m.completed), lld(m.num_requests),
            lld(m.generated_tokens), format_time(m.makespan).c_str(),
            m.cost_cache_entries, lld(m.cost_cache_hits),
            lld(m.cost_cache_misses));
        break;
      case StudyKind::kFairness:
        std::printf(
            "admission=%s: jain fairness (weight-normalized) %.4f, completed "
            "%lld/%lld within the %.0f s window\n",
            scenario.scheduler.admission.policy.c_str(), m.jain_fairness,
            lld(m.completed), lld(m.num_requests),
            serving::kMultiTenantFairnessHorizon);
        break;
      case StudyKind::kPrefixCache:
        if (!scenario.scheduler.enable_prefix_cache) break;
        std::printf(
            "prefix_cache=on block=%lld: hit rate %.3f (%lld of %lld prefix "
            "tokens served from cache), %lld blocks saved, %lld CoW copies\n",
            lld(scenario.scheduler.kv_block_tokens), m.prefix_hit_rate,
            lld(m.counters.prefix_hit_tokens),
            lld(m.counters.prefix_lookup_tokens),
            lld(m.counters.prefix_shared_blocks),
            lld(m.counters.prefix_cow_blocks));
        break;
      case StudyKind::kSloFrontier:
        std::printf(
            "admission=%s rate=%.0f: slo attainment %.4f (%lld of %lld "
            "arrived met deadlines), shed %lld deadline + %lld horizon\n",
            scenario.scheduler.admission.policy.c_str(), cell.arrival_rate,
            m.slo_attainment, lld(m.slo_met),
            lld(m.completed + m.counters.total_shed()),
            lld(m.counters.shed_deadline), lld(m.counters.shed_horizon));
        break;
      case StudyKind::kFaultStorm:
        std::printf(
            "fault_storm recovery=%s: availability %.4f, slo goodput %.1f "
            "tokens/s, %lld stalls + %lld kv losses + %lld device failures, "
            "%lld retries, %lld shed to faults, %lld wasted recompute "
            "tokens\n",
            scenario.fault.recovery_enabled ? "on" : "off", m.availability,
            m.slo_goodput_tokens_per_second, lld(m.fault.stalls),
            lld(m.fault.kv_losses), lld(m.fault.device_failures),
            lld(m.fault.retries), lld(m.counters.shed_fault),
            lld(m.fault.wasted_recompute_tokens));
        break;
      default:
        return false;
    }
  }
  return true;
}

/// Re-runs the prefix-cache block-16 point traced (0.5 s sampling), checks
/// it against the untraced row and reconciles the trace with its metrics.
/// With a trace dir, also runs a traced two-point eviction-policy sweep
/// under KV pressure.  With `json`, writes the replay as
/// BENCH_serving.json's "observability" block.
void print_observability(const serving::ServingStudy& prefix,
                         const serving::ServingMetrics& untraced,
                         const serving::SweepOptions& options,
                         const std::string& trace_dir, std::uint64_t seed,
                         std::ostream* json) {
  serving::ServingScenario traced = prefix.points[1].scenario;
  traced.trace.enabled = true;
  traced.trace.sample_interval = 0.5;
  traced.trace.dir = trace_dir;  // empty: in-memory only
  traced.trace.label = "prefix_block16";
  serving::ServingTrace trace;
  const serving::ServingMetrics metrics = serving::run_serving(
      traced, *prefix.requests, options.shared_cache, &trace);
  const bool neutral =
      metrics.goodput_tokens_per_second ==
          untraced.goodput_tokens_per_second &&
      metrics.ttft.p99 == untraced.ttft.p99 &&
      metrics.e2e.p99 == untraced.e2e.p99 &&
      metrics.preemptions == untraced.preemptions &&
      metrics.completed == untraced.completed;
  const serving::TraceReconciliation check =
      serving::reconcile_trace(trace.events(), metrics.ttft, metrics.e2e);

  std::printf("\nObservability — traced replay of prefix_cache=on block=16:\n");
  std::printf("  events:");
  for (const auto& [name, count] :
       serving::trace_event_counts(trace.events())) {
    std::printf(" %s=%lld", name.c_str(), lld(count));
  }
  std::printf("\n  timeseries samples: %zu (0.5 s interval)\n"
              "  tracing metrics-neutral vs untraced run: %s\n",
              metrics.timeseries.size(), neutral ? "yes" : "NO — BUG");
  for (const auto& [what, matches, summary] :
       {std::tuple{"TTFT", check.ttft_matches, check.ttft},
        std::tuple{"e2e", check.e2e_matches, check.e2e}}) {
    std::printf("  trace-vs-metrics %s reconciliation: %s (count %lld, p99 "
                "%.9f s)\n", what, matches ? "exact" : "MISMATCH",
                lld(summary.count), summary.p99);
  }
  if (json != nullptr) {
    *json << ",\n  \"observability\": {\"sample_interval_s\": "
          << traced.trace.sample_interval << ", \"events\": {";
    const char* separator = "";
    for (const auto& [name, count] :
         serving::trace_event_counts(trace.events())) {
      *json << separator << '"' << name << "\": " << count;
      separator = ", ";
    }
    *json << "}, \"reconciliation\": {\"ttft_matches\": "
          << (check.ttft_matches ? "true" : "false")
          << ", \"e2e_matches\": " << (check.e2e_matches ? "true" : "false")
          << ", \"requests_traced\": " << check.requests_traced
          << "},\n  \"timeseries\": "
          << serving::time_samples_json(metrics.timeseries)
          << ",\n  \"registry\": " << metrics.registry.to_json() << '}';
  }
  if (trace_dir.empty()) return;

  serving::ServingSweep sweep;
  sweep.stream = serving::prefix_chatbot_stream(
      seed, /*num_requests=*/400, /*arrival_rate=*/30.0);
  sweep.arrival_rates = {sweep.stream.arrival_rate};
  sweep.base.scenario = traced;
  // The policies study's 8,000-token budget: at the prefix study's 20,000
  // tokens neither policy ever evicts, so the two cells would not differ.
  sweep.base.scenario.kv_budget_override =
      serving::KvCacheManager::token_bytes(traced.model) * 8000.0;
  sweep.base.scenario.trace.label = "sweep";
  sweep.base.scenario.trace.sample_interval = 0;  // events only
  sweep.axes = {{"policy", {"preempt_newest", "swap_to_host"},
                 [](serving::SweepPoint& point, std::size_t i) {
                   point.scenario.eviction =
                       i == 0 ? serving::EvictionPolicy::kPreemptNewest
                              : serving::EvictionPolicy::kSwapToHost;
                 }}};
  serving::run_serving_sweep(sweep, options);
}

/// Runs the router study's prefix_affinity point (third in
/// cluster_router_policy_order) unflattened and prints its replicas.
void print_replica_breakdown(const serving::ServingStudy& router,
                             const serving::SweepOptions& options,
                             const std::string& trace_dir) {
  const serving::SweepPoint& point = router.points[2];
  serving::ClusterConfig config;
  config.base = point.scenario;
  config.replicas.assign(point.replicas, serving::ReplicaSpec{});
  config.router_policy = point.router_policy;
  config.base.trace.enabled = !trace_dir.empty();
  config.base.trace.dir = trace_dir;
  config.base.trace.label = "cluster_affinity";
  const serving::ClusterMetrics affinity = serving::run_serving_cluster(
      config, *router.requests, options.shared_cache);

  AsciiTable table("Cluster replicas — " + cell_i(point.replicas) +
                   " x 1 chip, prefix_affinity router, " +
                   cell_i(serving::kClusterPrefixPool) +
                   "-prefix chatbot stream");
  table.set_header({"replica", "chips", "done", "tokens", "MXU util",
                    "hit rate", "preempt"});
  for (std::size_t i = 0; i < affinity.replica_metrics.size(); ++i) {
    const serving::ServingMetrics& replica = affinity.replica_metrics[i];
    table.add_row({cell_i(i), cell_i(replica.chips), cell_i(replica.completed),
                   cell_i(replica.generated_tokens),
                   cell_f(100.0 * replica.mxu_utilization, 1) + "%",
                   cell_f(replica.prefix_hit_rate, 3),
                   cell_i(replica.preemptions)});
  }
  std::printf("\n");
  table.print();
  std::printf(
      "cluster router=prefix_affinity: %lld/%lld requests over %s, "
      "cluster-wide hit rate %.3f, jain across replicas %.4f\n",
      lld(affinity.fleet.completed), lld(affinity.fleet.num_requests),
      format_time(affinity.fleet.makespan).c_str(),
      affinity.fleet.prefix_hit_rate, affinity.jain_across_replicas);
}

/// Production-shaped mix: three tenants on staggered diurnal cycles —
/// time-zone-offset populations whose peaks sweep around the period.
void print_diurnal_mix(std::uint64_t seed) {
  const std::vector<serving::Request> requests =
      serving::diurnal_tenant_mix_requests(seed, /*requests_per_tenant=*/200,
                                           /*per_tenant_rate=*/5.0,
                                           /*num_tenants=*/3);
  std::int64_t per_tenant[3] = {0, 0, 0};
  for (const serving::Request& request : requests) {
    ++per_tenant[request.tenant_id];
  }
  std::printf("diurnal tenant mix: %zu requests over %s (3 tenants x "
              "%lld/%lld/%lld, staggered peaks)\n",
              requests.size(),
              format_time(requests.back().arrival_time).c_str(),
              lld(per_tenant[0]), lld(per_tenant[1]), lld(per_tenant[2]));
}

/// The study inputs the positional arguments choose.
serving::StudyInputs positional_inputs(int argc, char** argv) {
  CIMTPU_CONFIG_CHECK(argc <= 7,
                      "unexpected argument '" << argv[7]
                          << "' (expected at most [model] [requests] "
                             "[rate_req_s] [seed] [process] [dtype])");
  serving::StudyInputs inputs;
  serving::RequestStreamConfig& stream = inputs.stream;
  stream = serving::zipf_chat_stream(
      /*seed=*/argc > 4 ? parse_seed(argv[4]) : 42,
      /*num_requests=*/argc > 2 ? parse_int(argv[2], "requests") : 10000,
      /*arrival_rate=*/argc > 3 ? parse_double(argv[3], "rate_req_s") : 20.0);
  if (argc > 5) {
    const std::string process = argv[5];
    CIMTPU_CONFIG_CHECK(process == "poisson" || process == "bursty",
                        "unknown arrival process '"
                            << process << "' (expected poisson or bursty)");
    if (process == "bursty") stream.process = serving::ArrivalProcess::kBursty;
  }
  stream.validate();
  inputs.model = models::model_by_name(argc > 1 ? argv[1] : "llama2-7b");
  inputs.model.dtype =
      argc > 6 ? ir::dtype_from_name(argv[6]) : ir::DType::kInt4;
  inputs.baseline_rates = {stream.arrival_rate};
  inputs.fault_rates = {1.0};
  return inputs;
}

/// BENCH_serving.json's fixed grid (the fault-storm and cluster studies
/// run too).
serving::StudyInputs bench_inputs() {
  serving::StudyInputs inputs;
  inputs.model = models::llama2_7b();
  inputs.model.dtype = ir::DType::kInt4;
  inputs.stream = serving::zipf_chat_stream(
      /*seed=*/42, /*num_requests=*/2000, /*arrival_rate=*/20.0);
  inputs.baseline_rates = {5.0, 10.0, 20.0};
  inputs.fault_rates = {0.5, 1.0};
  return inputs;
}

int run(int argc, char** argv) {
  // Flags may sit anywhere; an unknown one fails rather than be ignored.
  std::string trace_dir;
  std::string bench_path;  // empty: no --bench-json
  bool fault_storm = false;
  bool cluster = false;
  const auto path_value = [argc, argv](int& i) -> std::string {
    CIMTPU_CONFIG_CHECK(i + 1 < argc && argv[i + 1][0] != '\0',
                        argv[i] << " requires a non-empty value");
    return argv[++i];
  };
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-dir") == 0) {
      trace_dir = path_value(i);
    } else if (std::strcmp(argv[i], "--bench-json") == 0) {
      bench_path = path_value(i);
    } else if (std::strcmp(argv[i], "--fault-storm") == 0) {
      fault_storm = true;
    } else if (std::strcmp(argv[i], "--cluster") == 0) {
      cluster = true;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      throw ConfigError("unknown flag '" + std::string(argv[i]) +
                        "' (expected --trace-dir <dir>, --fault-storm, "
                        "--cluster, or --bench-json <path>)");
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  const bool bench = !bench_path.empty();
  CIMTPU_CONFIG_CHECK(!bench || argc == 1,
                      "unexpected argument '"
                          << argv[1]
                          << "' (--bench-json runs a fixed grid and takes "
                             "no positional arguments)");
  const serving::StudyInputs inputs =
      bench ? bench_inputs() : positional_inputs(argc, argv);
  const serving::RequestStreamConfig& stream = inputs.stream;
  fault_storm |= bench;
  cluster |= bench;

  // The worker count (CIMTPU_SWEEP_THREADS) is checked, and the JSON
  // output opened, before any grid runs or anything prints: bad input
  // fails at once and leaves an existing output untouched.
  serving::SweepOptions options;
  options.threads = serving::resolve_sweep_threads(
      0, std::numeric_limits<std::size_t>::max());
  std::ofstream json;
  if (bench) {
    json.open(bench_path);
    CIMTPU_CONFIG_CHECK(json.is_open(),
                        "cannot open '" << bench_path << "' for writing");
    json << "{\n  \"bench\": \"serving\",\n  \"schema_version\": 12,\n"
         << "  \"model\": \"" << inputs.model.name << "\",\n"
         << "  \"dtype\": \"int4\",\n  \"requests\": " << stream.num_requests
         << ",\n  \"seed\": " << stream.seed;
  }

  std::printf(
      "Serving traffic: %s (%s), %lld requests, %s arrivals at %.1f req/s, "
      "seed %llu\n\n",
      inputs.model.name.c_str(), ir::dtype_name(inputs.model.dtype).c_str(),
      lld(stream.num_requests),
      serving::arrival_process_name(stream.process).c_str(),
      stream.arrival_rate, static_cast<unsigned long long>(stream.seed));

  std::vector<serving::ServingStudy> studies =
      serving::serving_studies(inputs);
  serving::SharedStepCostCache shared_costs;  // across every study
  options.shared_cache = &shared_costs;
  const auto wall_start = std::chrono::steady_clock::now();
  const auto at = [](StudyKind kind) { return static_cast<std::size_t>(kind); };
  std::vector<Cells> results(studies.size());
  std::size_t largest_grid = 0;
  for (serving::ServingStudy& study : studies) {
    const StudyKind kind = study.kind;
    if (kind == StudyKind::kFaultStorm && !fault_storm) continue;
    if (!cluster && (kind == StudyKind::kClusterRouter ||
                     kind == StudyKind::kDisaggregation)) {
      continue;
    }
    if (!trace_dir.empty() && (kind == StudyKind::kFaultStorm ||
                               kind == StudyKind::kDisaggregation)) {
      // One trace file set per cell, labelled by run_serving_sweep.
      serving::TraceConfig& trace = study.sweep.base.scenario.trace;
      trace.enabled = true;
      trace.dir = trace_dir;
      trace.label = study.name;
    }
    if (kind == StudyKind::kClusterRouter) {
      print_replica_breakdown(study, options, trace_dir);
    }
    const Cells& cells = results[at(kind)] = serving::run_study(study, options);
    largest_grid = std::max(largest_grid, cells.size());
    if (bench) {
      json << ",\n";
      serving::write_study_json(study, cells, json);
    }
    if (kind != StudyKind::kBaseline) std::printf("\n");
    if (print_row_notes(kind, cells)) std::printf("\n");
    serving::study_table(study, cells).print();

    if (kind == StudyKind::kSloFrontier) {
      print_diurnal_mix(stream.seed);
      const std::size_t prefix = at(StudyKind::kPrefixCache);
      print_observability(studies[prefix], results[prefix][1].metrics,
                          options, trace_dir, stream.seed,
                          bench ? &json : nullptr);
    } else if (kind == StudyKind::kClusterRouter) {
      // Rows follow cluster_router_policy_order(): round_robin first.
      std::printf("router comparison: prefix_affinity hit rate %.3f vs "
                  "round_robin %.3f\n",
                  cells[2].metrics.prefix_hit_rate,
                  cells[0].metrics.prefix_hit_rate);
    } else if (kind == StudyKind::kDisaggregation) {
      // The last two cells: the top rate's colocated and disaggregated pair.
      const serving::SweepCellResult& colocated = cells[cells.size() - 2];
      std::printf("disaggregation: at %.0f req/s TTFT p99 disagg %s vs "
                  "colocated %s\n", colocated.arrival_rate,
                  format_time(cells.back().metrics.ttft.p99).c_str(),
                  format_time(colocated.metrics.ttft.p99).c_str());
    }
  }

  if (bench) {
    json << "\n}\n";
    json.close();
    CIMTPU_CONFIG_CHECK(!json.fail(), "failed writing '" << bench_path << "'");
  }

  // stderr: run-dependent.  The largest grid sets the peak worker count.
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;
  std::fprintf(stderr, "wall clock: %.2f s for all deployments (%d sweep "
               "threads)\n", wall.count(),
               serving::resolve_sweep_threads(options.threads, largest_grid));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Bad input from the CLI, the env or a config: one line, exit 2.
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "serving_traffic: %s\n", error.what());
    return 2;
  }
}
