// Serving bench: runs every serving study (serving/studies.h) on
// llama2-7b INT4, prints each study's table and writes BENCH_serving.json
// (schema_version 11): one block per study, plus
//   "observability" — one traced re-run of the prefix-cache block-16
//                point: event counts, the trace-vs-metrics reconciliation,
//                time-series samples and the end-of-run registry;
//   "sweep"    — host wall time and steps per second of the baseline and
//                policy grids, which CI's perf-smoke job gates against the
//                committed copy.
// The host-time fields (sim_wall_seconds, steps_per_second and the sweep
// block) are the only values that change from run to run.
//
// Flags:
//   --out <path>        JSON output path (default BENCH_serving.json)
//   --trace-dir <path>  also write the traced run's Perfetto/JSONL files
// Any other argument, or an output path that cannot be written, prints one
// "bench_serving: <message>" line and exits 2.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/status.h"
#include "serving/studies.h"
#include "serving/trace.h"
#include "serving/traffic_profiles.h"

using namespace cimtpu;

namespace {

using serving::StudyKind;
using Cells = std::vector<serving::SweepCellResult>;

/// The "observability" block: the prefix-cache block-16 point re-run with
/// tracing and 0.5 s sampling.  Tracing is metrics-neutral, so the re-run
/// equals the untraced row; the block reports what only the trace sees.
void write_observability(const serving::ServingStudy& prefix,
                         serving::SharedStepCostCache* costs,
                         const std::string& trace_dir, std::ostream& json) {
  serving::ServingScenario traced = prefix.points[1].scenario;
  traced.trace.enabled = true;
  traced.trace.sample_interval = 0.5;
  traced.trace.label = "bench_prefix_block16";
  traced.trace.dir = trace_dir;  // empty: in-memory only
  serving::ServingTrace trace;
  const serving::ServingMetrics metrics =
      serving::run_serving(traced, *prefix.requests, costs, &trace);
  const serving::TraceReconciliation check =
      serving::reconcile_trace(trace.events(), metrics.ttft, metrics.e2e);

  json << "  \"observability\": {\"sample_interval_s\": "
       << traced.trace.sample_interval << ", \"events\": {";
  const char* separator = "";
  for (const auto& [name, count] :
       serving::trace_event_counts(trace.events())) {
    json << separator << '"' << name << "\": " << count;
    separator = ", ";
  }
  json << "}, \"reconciliation\": {\"ttft_matches\": "
       << (check.ttft_matches ? "true" : "false")
       << ", \"e2e_matches\": " << (check.e2e_matches ? "true" : "false")
       << ", \"requests_traced\": " << check.requests_traced
       << "},\n  \"timeseries\": "
       << serving::time_samples_json(metrics.timeseries)
       << ",\n  \"registry\": " << metrics.registry.to_json() << "}";

  const std::string trace_note =
      trace_dir.empty()
          ? std::string()
          : " -> " + trace_dir + "/bench_prefix_block16.trace.json";
  std::printf("  observability: %zu events, ttft %s, e2e %s, %zu samples%s\n",
              trace.events().size(),
              check.ttft_matches ? "reconciled" : "MISMATCH",
              check.e2e_matches ? "reconciled" : "MISMATCH",
              metrics.timeseries.size(), trace_note.c_str());
}

int run(int argc, char** argv) {
  std::string out_path = "BENCH_serving.json";
  std::string trace_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) {
      CIMTPU_CONFIG_CHECK(i + 1 < argc, "--out requires a value");
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-dir") == 0) {
      CIMTPU_CONFIG_CHECK(i + 1 < argc, "--trace-dir requires a value");
      trace_dir = argv[++i];
    } else {
      throw ConfigError("unknown argument '" + std::string(argv[i]) +
                        "' (expected --out <path> or --trace-dir <path>)");
    }
  }
  // The worker count (CIMTPU_SWEEP_THREADS) is checked, and the output
  // opened, before any grid runs: bad input fails at once and leaves an
  // existing output untouched.
  serving::SweepOptions options;
  options.threads = serving::resolve_sweep_threads(
      0, std::numeric_limits<std::size_t>::max());
  std::ofstream json(out_path);
  CIMTPU_CONFIG_CHECK(json.is_open(),
                      "cannot open '" << out_path << "' for writing");

  bench::banner("Serving", "continuous-batching goodput and tail latency");
  serving::StudyInputs inputs;
  inputs.model =
      serving::llama7b_baseline_scenario(/*chips=*/1, ir::DType::kInt4).model;
  inputs.stream = serving::zipf_chat_stream(
      /*seed=*/42, /*num_requests=*/2000, /*arrival_rate=*/20.0);
  inputs.baseline_rates = {5.0, 10.0, 20.0};
  inputs.fault_rates = {0.5, 1.0};
  const std::vector<serving::ServingStudy> studies =
      serving::serving_studies(inputs);

  json << "{\n  \"bench\": \"serving\",\n  \"schema_version\": 11,\n"
       << "  \"model\": \"" << inputs.model.name << "\",\n"
       << "  \"dtype\": \"int4\",\n  \"requests\": "
       << inputs.stream.num_requests << ",\n  \"seed\": "
       << inputs.stream.seed << ",\n";

  // One shared cost cache across every study: they run the same chip and
  // model, so each grid starts from the earlier grids' warm store.
  serving::SharedStepCostCache shared_costs;
  options.shared_cache = &shared_costs;
  const auto start = std::chrono::steady_clock::now();
  double sweep_wall = 0;  // baseline + policy grids only
  std::vector<Cells> results;
  for (const serving::ServingStudy& study : studies) {
    results.push_back(serving::run_study(study, options));
    if (study.kind == StudyKind::kPolicies) {
      sweep_wall = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    }
    serving::write_study_json(study, results.back(), json);
    json << ",\n";
    serving::study_table(study, results.back()).print();
    if (study.kind == StudyKind::kPrefixCache) {
      write_observability(study, &shared_costs, trace_dir, json);
      json << ",\n";
    }
  }
  const auto cells = [&results](StudyKind kind) -> const Cells& {
    return results[static_cast<std::size_t>(kind)];
  };

  const Cells& baseline = cells(StudyKind::kBaseline);
  const Cells& policies = cells(StudyKind::kPolicies);
  std::int64_t total_steps = 0;
  for (const Cells* grid : {&baseline, &policies}) {
    for (const serving::SweepCellResult& cell : *grid) {
      total_steps += cell.metrics.total_steps;
    }
  }
  // Worker counts as run_sweep resolved them per grid.
  const int baseline_threads =
      serving::resolve_sweep_threads(options.threads, baseline.size());
  const int policy_threads =
      serving::resolve_sweep_threads(options.threads, policies.size());
  json << "  \"sweep\": {\"points\": " << baseline.size() + policies.size()
       << ", \"threads_baseline\": " << baseline_threads
       << ", \"threads_policies\": " << policy_threads
       << ", \"wall_seconds\": " << sweep_wall
       << ", \"total_steps\": " << total_steps << ", \"steps_per_second\": "
       << (sweep_wall > 0 ? static_cast<double>(total_steps) / sweep_wall : 0)
       << "}\n}\n";
  json.close();
  if (json.fail()) {
    throw std::runtime_error("failed writing '" + out_path + "'");
  }
  std::printf("  wrote %s (%zu sweep points, %d/%d threads, %.3f s wall, "
              "%lld steps)\n",
              out_path.c_str(), baseline.size() + policies.size(),
              baseline_threads, policy_threads, sweep_wall,
              static_cast<long long>(total_steps));

  // The pinned orderings, from each grid's documented row order.
  const Cells& fairness = cells(StudyKind::kFairness);
  std::printf("  fairness: wfq jain %.4f vs fifo jain %.4f (2 tenants, 3:1 "
              "weights)\n",
              fairness[1].metrics.jain_fairness,
              fairness[0].metrics.jain_fairness);
  const Cells& prefix = cells(StudyKind::kPrefixCache);
  std::printf("  prefix cache: hit rate %.3f, goodput %.1f vs %.1f tokens/s "
              "off (block 16)\n",
              prefix[1].metrics.prefix_hit_rate,
              prefix[1].metrics.goodput_tokens_per_second,
              prefix[0].metrics.goodput_tokens_per_second);
  // Rate-, fault-rate- and rate-major grids: the last two cells are the top
  // point's {fifo, edf}, {recovery off, on} and {colocated, disagg} pair.
  const auto last_pair = [&cells](StudyKind kind) {
    const Cells& grid = cells(kind);
    return std::make_pair(&grid[grid.size() - 2], &grid[grid.size() - 1]);
  };
  const auto [fifo, edf] = last_pair(StudyKind::kSloFrontier);
  std::printf("  slo frontier: at %.0f req/s attainment edf %.4f vs fifo "
              "%.4f (SLO goodput %.1f vs %.1f tokens/s)\n",
              fifo->arrival_rate, edf->metrics.slo_attainment,
              fifo->metrics.slo_attainment,
              edf->metrics.slo_goodput_tokens_per_second,
              fifo->metrics.slo_goodput_tokens_per_second);
  const auto [off, on] = last_pair(StudyKind::kFaultStorm);
  std::printf("  resilience: at fault rate %.1f availability recovery-on "
              "%.4f vs off %.4f (SLO goodput %.1f vs %.1f tokens/s)\n",
              inputs.fault_rates.back(), on->metrics.availability,
              off->metrics.availability,
              on->metrics.slo_goodput_tokens_per_second,
              off->metrics.slo_goodput_tokens_per_second);
  // Router rows follow cluster_router_policy_order(): round_robin first,
  // prefix_affinity third.
  const Cells& routers = cells(StudyKind::kClusterRouter);
  std::printf("  cluster: prefix_affinity hit rate %.3f vs round_robin "
              "%.3f (%d replicas, jain %.4f vs %.4f)\n",
              routers[2].metrics.prefix_hit_rate,
              routers[0].metrics.prefix_hit_rate, serving::kClusterReplicas,
              routers[2].metrics.jain_fairness,
              routers[0].metrics.jain_fairness);
  const auto [colocated, disagg] = last_pair(StudyKind::kDisaggregation);
  std::printf("  disaggregation: at %.0f req/s TTFT p99 disagg %.3f s vs "
              "colocated %.3f s (%.2f GiB KV streamed)\n",
              colocated->arrival_rate, disagg->metrics.ttft.p99,
              colocated->metrics.ttft.p99,
              static_cast<double>(disagg->metrics.registry.counter_or_zero(
                  "cluster.kv_transfer_bytes")) /
                  GiB);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // One top-level catch: a bad flag, env value, config or output path
  // prints one line and exits 2 instead of aborting.
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_serving: %s\n", error.what());
    return 2;
  }
}
