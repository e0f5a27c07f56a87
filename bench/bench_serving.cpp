// Serving baseline bench: goodput and tail latency of continuous-batching
// request streams across arrival rates, pipeline depths, and — under a
// deliberately tight KV budget — preemption policy x chunked-prefill
// configurations.  This is the perf trajectory anchor for the serving
// subsystem: later scheduler or cost-cache optimizations move these
// numbers, and the per-policy rows let future PRs track policy-level perf
// trajectories.
//
// Both grids run on the deterministic parallel sweep driver
// (serving/sweep.h): points fan out over a worker pool with a shared
// step-cost cache, and the simulated metrics are bit-identical to serial
// execution.
//
// Emits BENCH_serving.json (schema_version 11; --out overrides the path):
//   "baseline" — goodput + p99 TTFT/TPOT across 3 arrival rates x 2 chip
//                counts, with per-row sim_wall_seconds and
//                steps_per_second (the simulator-performance trajectory),
//   "policies" — per-(policy x chunked on/off) rows under KV pressure with
//                preemption split, swap traffic, and chunked-step counts,
//   "fairness" — the multi-tenant admission study (FIFO vs weighted fair
//                queueing, 2 tenants at 3:1 weights over a fixed overload
//                window) with per-tenant goodput rows and the
//                weight-normalized Jain fairness index,
//   "prefix_cache" — the paged-KV prefix-caching study on the
//                prefix-heavy chatbot stream (shared system prompts):
//                caching off vs on at block 16 plus block 64, with prefix
//                hit rate, blocks saved, CoW copies, and the
//                internal-fragmentation gauge per row,
//   "observability" — one TRACED re-run of the prefix-cache
//                block-16 point (event counts by type, the trace-vs-
//                metrics TTFT/e2e reconciliation, the time-series samples,
//                and the full end-of-run metrics registry including
//                cost-cache and KV-manager stats).  The traced run is a
//                separate point; every pinned row above runs untraced,
//   "slo_frontier" — the SLO-aware scheduling study (arrival
//                rate x {fifo, edf} over the canonical deadline-carrying
//                chat stream, 30 s overload window) with per-cell SLO
//                attainment, deadline-meeting goodput, and shed counts —
//                the grid where EDF admission control's shedding beats
//                head-of-line FIFO under overload,
//   "resilience" — NEW in v8: the fault-injection study (the canonical
//                fault storm at fault-rate scales x recovery on/off via
//                the sweep's resilience axes) with per-cell availability,
//                MTTR, retries, fault sheds, wasted recompute tokens, and
//                recovery-policy goodput — the frontier where backoff
//                re-admission + host-shadow KV restore strictly beat
//                dropping every fault-hit request,
//   "cluster"  — NEW in v9: the cluster-scale serving study
//                (serving/cluster.h).  "router_rows" compares the four
//                built-in router policies over 4 single-chip replicas on
//                the 16-prefix chatbot stream — the grid where
//                prefix_affinity's cluster-wide hit rate beats
//                round_robin's (scattering every prefix family across
//                all four caches cools each one).  "disaggregation" runs
//                arrival rate x {colocated, disaggregated} over the same
//                4 replicas on zipf-chat traffic: the disaggregated cells
//                dedicate 1 replica to prefill and stream finished KV to
//                the decode replicas block-by-block over the modeled ICI
//                fabric, and at the top rate their p99 TTFT beats the
//                colocated cells' (first tokens no longer queue behind
//                resident decode batches) — both orderings are pinned,
//   "sweep"    — wall-clock of the baseline + policy grids and the worker
//                count, the headline number for hot-path optimizations
//                (the CI perf-smoke job gates steps_per_second against
//                the committed repo-root baseline copy of this file).
//
// Flags (stripped before google-benchmark sees argv):
//   --out <path>        JSON output path (default BENCH_serving.json)
//   --trace-dir <path>  also write the traced run's Perfetto/JSONL files
//   --benchmark*        passed through to google-benchmark
// Any other argument prints one error line and exits 2 before any work.

#include <chrono>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/status.h"
#include "serving/sweep.h"
#include "serving/trace.h"
#include "serving/traffic_profiles.h"

using namespace cimtpu;

namespace {

serving::RequestStreamConfig stream_config(double rate) {
  return serving::zipf_chat_stream(/*seed=*/42, /*num_requests=*/2000, rate);
}

serving::ServingScenario scenario_for(int chips) {
  return serving::llama7b_baseline_scenario(chips, ir::DType::kInt4);
}

void BM_serving_small_stream(benchmark::State& state) {
  const auto stream = [] {
    serving::RequestStreamConfig config = stream_config(20.0);
    config.num_requests = 200;
    return config;
  }();
  const std::vector<serving::Request> requests =
      serving::generate_requests(stream);
  for (auto _ : state) {
    benchmark::DoNotOptimize(serving::run_serving(scenario_for(1), requests));
  }
}
BENCHMARK(BM_serving_small_stream);

int run(int argc, char** argv) {
  bench::banner("Serving", "continuous-batching goodput and tail latency");

  // Custom flags, stripped from argv before google-benchmark parses it.
  // Any other argument is rejected HERE, loudly and before any work:
  // silently forwarding a typo ("--trace-dri") to google-benchmark used to
  // discard it, and a stray positional only failed there after the whole
  // grid had run and written --out.  Only google-benchmark's own
  // "--benchmark*" flags pass through.
  std::string out_path = "BENCH_serving.json";
  std::string trace_dir;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) {
      CIMTPU_CONFIG_CHECK(i + 1 < argc, "--out requires a value");
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-dir") == 0) {
      CIMTPU_CONFIG_CHECK(i + 1 < argc, "--trace-dir requires a value");
      trace_dir = argv[++i];
    } else if (std::strncmp(argv[i], "--benchmark", 11) == 0) {
      argv[kept++] = argv[i];
    } else {
      throw ConfigError("unknown argument '" + std::string(argv[i]) +
                        "' (expected --out <path>, --trace-dir <path>, or "
                        "--benchmark* flags)");
    }
  }
  argc = kept;

  const std::vector<double> rates = {5.0, 10.0, 20.0};
  // One shared cost cache across BOTH grids: they run the same chip /
  // model / bucket, so the policy sweep starts from the baseline sweep's
  // warm store instead of re-simulating every shape.
  serving::SharedStepCostCache shared_costs;
  serving::SweepOptions sweep_options;  // threads from env / hardware
  sweep_options.shared_cache = &shared_costs;
  const auto sweep_start = std::chrono::steady_clock::now();

  // --- Baseline grid: arrival rate x chips via the declarative sweep ---------
  serving::ServingSweep baseline_sweep;
  baseline_sweep.arrival_rates = rates;
  baseline_sweep.base.scenario = scenario_for(1);
  baseline_sweep.axes = {{"chips", {"1", "4"},
                          [](serving::SweepPoint& point, std::size_t i) {
                            point.scenario.chips = i == 0 ? 1 : 4;
                          }}};
  baseline_sweep.stream = stream_config(/*rate=*/rates.front());
  const std::vector<serving::SweepCellResult> baseline =
      serving::run_serving_sweep(baseline_sweep, sweep_options);

  CsvWriter csv(bench::output_dir() + "/serving.csv");
  csv.write_header({"arrival_rate", "chips", "goodput_tokens_per_s",
                    "ttft_p99_s", "tpot_p99_s", "energy_per_token_j",
                    "mxu_utilization", "preemptions", "steps_per_second",
                    "sim_wall_s"});

  AsciiTable table("Serving baseline — llama2-7b INT4, 2000-request Poisson streams");
  table.set_header({"rate (req/s)", "chips", "tokens/s", "TTFT p99",
                    "TPOT p99", "J/token", "MXU util"});

  std::ofstream json(out_path);
  json << "{\n  \"bench\": \"serving\",\n  \"schema_version\": 11,\n"
       << "  \"model\": \"llama2-7b\",\n"
       << "  \"dtype\": \"int4\",\n  \"requests\": 2000,\n  \"seed\": 42,\n"
       << "  \"baseline\": [\n";
  bool first = true;
  // Rows carry their own grid coordinates — no loop-order convention to
  // keep in sync with the expansion.
  for (const serving::SweepCellResult& result : baseline) {
    const double rate = result.arrival_rate;
    const int chips = result.point.scenario.chips;
    const serving::ServingMetrics& metrics = result.metrics;
    csv.write_row({cell_f(rate, 1), cell_i(chips),
                   cell_f(metrics.goodput_tokens_per_second, 3),
                   cell_f(metrics.ttft.p99, 6), cell_f(metrics.tpot.p99, 6),
                   cell_f(metrics.energy_per_token, 9),
                   cell_f(metrics.mxu_utilization, 4),
                   cell_i(metrics.preemptions),
                   cell_f(metrics.steps_per_second, 1),
                   cell_f(metrics.sim_wall_seconds, 6)});
    table.add_row({cell_f(rate, 1), cell_i(chips),
                   cell_f(metrics.goodput_tokens_per_second, 1),
                   format_time(metrics.ttft.p99),
                   format_time(metrics.tpot.p99),
                   format_energy(metrics.energy_per_token),
                   cell_f(100.0 * metrics.mxu_utilization, 1) + "%"});
    if (!first) json << ",\n";
    first = false;
    json << "    {\"arrival_rate\": " << rate << ", \"chips\": " << chips
         << ", \"goodput_tokens_per_s\": "
         << metrics.goodput_tokens_per_second
         << ", \"ttft_p99_s\": " << metrics.ttft.p99
         << ", \"tpot_p99_s\": " << metrics.tpot.p99
         << ", \"energy_per_token_j\": " << metrics.energy_per_token
         << ", \"cost_cache_hits\": " << metrics.cost_cache_hits
         << ", \"cost_cache_misses\": " << metrics.cost_cache_misses
         << ", \"cost_cache_entries\": " << metrics.cost_cache_entries
         << ", \"cost_cache_occupancy\": " << metrics.cost_cache_occupancy
         << ", \"sim_wall_seconds\": " << metrics.sim_wall_seconds
         << ", \"steps_per_second\": " << metrics.steps_per_second << "}";
  }
  json << "\n  ],\n";

  // --- Policy x chunked-prefill sweep under KV pressure ----------------------
  // 8000-token device budget (vs ~10x that from HBM headroom): preemption
  // policies actually fire, so their costs are visible in the trajectory.
  const std::vector<serving::Request> pressured_requests =
      serving::generate_requests(serving::zipf_chat_stream(
          /*seed=*/42, /*num_requests=*/2000, /*arrival_rate=*/20.0,
          /*priority_classes=*/3));
  const std::vector<serving::SweepPoint> policy_points =
      serving::pressured_policy_grid_points(scenario_for(1).model,
                                            &pressured_requests,
                                            /*kv_budget_tokens=*/8000);
  const std::vector<serving::ServingMetrics> policy_results =
      serving::run_sweep(policy_points, sweep_options);

  AsciiTable policy_table(
      "Preemption policy x chunked prefill — llama2-7b INT4, 8000-token KV "
      "budget, 20 req/s");
  policy_table.set_header({"policy", "chunk", "tokens/s", "TTFT p99",
                           "TPOT p99", "preempt", "swapped", "swap GiB",
                           "chunk steps"});

  json << "  \"policies\": [\n";
  first = true;
  // Coordinates come from each point's own scenario, not loop order.
  for (std::size_t i = 0; i < policy_points.size(); ++i) {
    const serving::ServingMetrics& metrics = policy_results[i];
    const serving::ServingScenario& scenario = policy_points[i].scenario;
    const std::int64_t chunk = scenario.scheduler.prefill_chunk_tokens;
    const std::string name = serving::eviction_policy_name(scenario.eviction);
    policy_table.add_row(
        {name, chunk == 0 ? "off" : cell_i(chunk),
         cell_f(metrics.goodput_tokens_per_second, 1),
         format_time(metrics.ttft.p99), format_time(metrics.tpot.p99),
         cell_i(metrics.counters.preemptions_recompute),
         cell_i(metrics.counters.preemptions_swap),
         cell_f(metrics.counters.total_swap_bytes() / GiB, 2),
         cell_i(metrics.counters.chunked_prefill_steps)});
    if (!first) json << ",\n";
    first = false;
    json << "    {\"policy\": \"" << name << "\", \"chunk_tokens\": " << chunk
         << ", \"kv_budget_tokens\": 8000"
         << ", \"goodput_tokens_per_s\": "
         << metrics.goodput_tokens_per_second
         << ", \"ttft_p99_s\": " << metrics.ttft.p99
         << ", \"tpot_p99_s\": " << metrics.tpot.p99
         << ", \"preemptions_recompute\": "
         << metrics.counters.preemptions_recompute
         << ", \"preemptions_swap\": " << metrics.counters.preemptions_swap
         << ", \"swap_bytes\": " << metrics.counters.total_swap_bytes()
         << ", \"chunked_prefill_steps\": "
         << metrics.counters.chunked_prefill_steps
         << ", \"sim_wall_seconds\": " << metrics.sim_wall_seconds
         << ", \"steps_per_second\": " << metrics.steps_per_second << "}";
  }
  json << "\n  ],\n";

  // Whole-grid wall clock captured HERE — before the fairness grid — so
  // the sweep block's wall/steps_per_second keep the schema-v3 meaning
  // (baseline + policy grids only) and stay comparable across the v3 -> v4
  // boundary.  The fairness grid's cost reports inside its own rows'
  // sim_wall_seconds.
  const double sweep_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    sweep_start)
          .count();

  // --- Multi-tenant fairness: FIFO vs WFQ at 3:1 weights ---------------------
  // Fixed 30-simulated-second overload window (see
  // multi_tenant_fairness_scenario): both tenants stay backlogged, so the
  // per-tenant goodput ratio measures the admission policy's share
  // enforcement.  WFQ must land near the 3:1 weights with a
  // weight-normalized Jain index near 1; FIFO tracks the ~uniform traffic
  // mix instead.
  const std::vector<serving::Request> tenant_requests =
      serving::generate_requests(serving::multi_tenant_pressure_stream(
          /*seed=*/42, /*num_requests=*/400, /*arrival_rate=*/50.0,
          /*num_tenants=*/2));
  // The CANONICAL fairness grid (traffic_profiles.h): the same fifo/wfq
  // points serving_traffic demos, at the bench model.
  const std::vector<serving::SweepPoint> fairness_points =
      serving::multi_tenant_fairness_points(scenario_for(1).model,
                                            &tenant_requests);
  const std::vector<serving::ServingMetrics> fairness_results =
      serving::run_sweep(fairness_points, sweep_options);

  AsciiTable fairness_table(
      "Multi-tenant admission — 2 tenants, weights 3:1, 30 s overload "
      "window");
  fairness_table.set_header({"admission", "tenant", "weight", "done",
                             "tokens", "TTFT p99", "tokens/s", "share",
                             "jain"});
  // Metadata derived from the canonical constants (traffic_profiles.h) so
  // the JSON always describes the grid the rows actually ran.
  json << "  \"fairness\": {\"tenants\": 2, \"weights\": [";
  const std::vector<double>& fairness_weights =
      serving::multi_tenant_fairness_weights();
  for (std::size_t w = 0; w < fairness_weights.size(); ++w) {
    if (w > 0) json << ", ";
    json << fairness_weights[w];
  }
  json << "], \"horizon_s\": " << serving::kMultiTenantFairnessHorizon
       << ", \"requests\": " << tenant_requests.size() << ", \"rows\": [\n";
  first = true;
  for (std::size_t i = 0; i < fairness_points.size(); ++i) {
    const serving::ServingMetrics& metrics = fairness_results[i];
    const std::string admission =
        fairness_points[i].scenario.scheduler.admission.policy;
    if (i > 0) fairness_table.add_separator();
    double total_goodput = 0;
    for (const serving::TenantMetrics& tenant : metrics.tenants) {
      total_goodput += tenant.goodput_tokens_per_second;
    }
    if (!first) json << ",\n";
    first = false;
    json << "    {\"admission\": \"" << admission
         << "\", \"jain_fairness_index\": " << metrics.jain_fairness
         << ", \"completed\": " << metrics.completed
         << ", \"per_tenant\": [";
    for (std::size_t t = 0; t < metrics.tenants.size(); ++t) {
      const serving::TenantMetrics& tenant = metrics.tenants[t];
      fairness_table.add_row(
          {admission, cell_i(tenant.tenant_id), cell_f(tenant.weight, 1),
           cell_i(tenant.completed), cell_i(tenant.generated_tokens),
           format_time(tenant.ttft.p99),
           cell_f(tenant.goodput_tokens_per_second, 1),
           total_goodput > 0
               ? cell_f(100.0 * tenant.goodput_tokens_per_second /
                            total_goodput,
                        1) + "%"
               : "n/a",
           cell_f(metrics.jain_fairness, 4)});
      if (t > 0) json << ", ";
      json << "{\"tenant\": " << tenant.tenant_id
           << ", \"weight\": " << tenant.weight
           << ", \"completed\": " << tenant.completed
           << ", \"generated_tokens\": " << tenant.generated_tokens
           << ", \"ttft_p99_s\": " << tenant.ttft.p99
           << ", \"goodput_tokens_per_s\": "
           << tenant.goodput_tokens_per_second << "}";
    }
    json << "]}";
  }
  json << "\n  ]},\n";

  // --- Paged-KV prefix caching on the prefix-heavy chatbot stream ------------
  // Shared 1000-token system prompts from a 4-prefix pool under a tight
  // device budget: with caching ON, repeat prefixes map cached blocks by
  // reference, skip their prefill, and free capacity — the hit rate must
  // clear 0.5 and goodput must strictly beat the caching-off row.  The
  // off-block-boundary prefix length keeps the copy-on-write tail hot.
  const std::vector<serving::Request> prefix_requests =
      serving::generate_requests(serving::prefix_chatbot_stream(
          /*seed=*/42, /*num_requests=*/400, /*arrival_rate=*/30.0));
  const std::vector<serving::SweepPoint> prefix_points =
      serving::prefix_cache_grid_points(scenario_for(1).model,
                                        &prefix_requests);
  const std::vector<serving::ServingMetrics> prefix_results =
      serving::run_sweep(prefix_points, sweep_options);

  AsciiTable prefix_table(
      "Paged KV prefix caching — " + cell_i(serving::kPrefixChatbotPool) +
      " shared " + cell_i(serving::kPrefixChatbotPrefixLen) +
      "-token system prompts, 20000-token KV budget");
  prefix_table.set_header({"block", "prefix cache", "tokens/s", "TTFT p99",
                           "hit rate", "blocks saved", "CoW", "frag",
                           "preempt"});
  json << "  \"prefix_cache\": {\"prefix_pool\": "
       << serving::kPrefixChatbotPool
       << ", \"prefix_len_tokens\": " << serving::kPrefixChatbotPrefixLen
       << ", \"kv_budget_tokens\": 20000"
       << ", \"requests\": " << prefix_requests.size() << ", \"rows\": [\n";
  first = true;
  for (std::size_t i = 0; i < prefix_points.size(); ++i) {
    const serving::ServingMetrics& metrics = prefix_results[i];
    const serving::SchedulerConfig& sched =
        prefix_points[i].scenario.scheduler;
    prefix_table.add_row(
        {cell_i(sched.kv_block_tokens),
         sched.enable_prefix_cache ? "on" : "off",
         cell_f(metrics.goodput_tokens_per_second, 1),
         format_time(metrics.ttft.p99), cell_f(metrics.prefix_hit_rate, 3),
         cell_i(metrics.counters.prefix_shared_blocks),
         cell_i(metrics.counters.prefix_cow_blocks),
         cell_f(metrics.kv_internal_fragmentation, 4),
         cell_i(metrics.preemptions)});
    if (!first) json << ",\n";
    first = false;
    json << "    {\"kv_block_tokens\": " << sched.kv_block_tokens
         << ", \"prefix_caching\": "
         << (sched.enable_prefix_cache ? "true" : "false")
         << ", \"goodput_tokens_per_s\": "
         << metrics.goodput_tokens_per_second
         << ", \"ttft_p99_s\": " << metrics.ttft.p99
         << ", \"tpot_p99_s\": " << metrics.tpot.p99
         << ", \"prefix_hit_rate\": " << metrics.prefix_hit_rate
         << ", \"prefix_hit_tokens\": "
         << metrics.counters.prefix_hit_tokens
         << ", \"blocks_saved\": " << metrics.counters.prefix_shared_blocks
         << ", \"cow_blocks\": " << metrics.counters.prefix_cow_blocks
         << ", \"internal_fragmentation\": "
         << metrics.kv_internal_fragmentation
         << ", \"preemptions\": " << metrics.preemptions
         << ", \"sim_wall_seconds\": " << metrics.sim_wall_seconds
         << ", \"steps_per_second\": " << metrics.steps_per_second << "}";
  }
  json << "\n  ]},\n";

  // --- Observability: one traced re-run of the prefix block-16 point ---------
  // Tracing is contractually metrics-neutral, so this re-run's numbers
  // equal the pinned prefix-cache row; the block reports what ONLY the
  // trace can see (event stream, time series, registry) plus the
  // trace-vs-metrics reconciliation the acceptance gate checks.
  {
    serving::ServingScenario traced = prefix_points[1].scenario;
    traced.trace.enabled = true;
    traced.trace.sample_interval = 0.5;
    traced.trace.label = "bench_prefix_block16";
    traced.trace.dir = trace_dir;  // empty: in-memory only
    traced.trace.write_jsonl = true;
    serving::ServingTrace trace;
    const serving::ServingMetrics metrics =
        serving::run_serving(traced, prefix_requests, &shared_costs, &trace);

    std::map<std::string, std::int64_t> event_counts;
    for (const serving::TraceEvent& event : trace.events()) {
      event_counts[serving::trace_event_type_name(event.type)] += 1;
    }
    std::vector<double> ttft, e2e;
    for (const serving::RequestTimeline& timeline :
         serving::trace_request_timelines(trace.events())) {
      if (timeline.first_token >= 0) {
        ttft.push_back(timeline.first_token - timeline.arrival);
      }
      if (timeline.completion >= 0) {
        e2e.push_back(timeline.completion - timeline.arrival);
      }
    }
    const serving::LatencySummary trace_ttft =
        serving::summarize_latencies(std::move(ttft));
    const serving::LatencySummary trace_e2e =
        serving::summarize_latencies(std::move(e2e));
    const bool ttft_matches = trace_ttft.count == metrics.ttft.count &&
                              trace_ttft.mean == metrics.ttft.mean &&
                              trace_ttft.p50 == metrics.ttft.p50 &&
                              trace_ttft.p99 == metrics.ttft.p99 &&
                              trace_ttft.max == metrics.ttft.max;
    const bool e2e_matches = trace_e2e.count == metrics.e2e.count &&
                             trace_e2e.mean == metrics.e2e.mean &&
                             trace_e2e.p50 == metrics.e2e.p50 &&
                             trace_e2e.p99 == metrics.e2e.p99 &&
                             trace_e2e.max == metrics.e2e.max;

    json << "  \"observability\": {\"sample_interval_s\": "
         << traced.trace.sample_interval << ", \"events\": {";
    bool first_count = true;
    for (const auto& [name, count] : event_counts) {
      if (!first_count) json << ", ";
      first_count = false;
      json << '"' << name << "\": " << count;
    }
    json << "}, \"reconciliation\": {\"ttft_matches\": "
         << (ttft_matches ? "true" : "false")
         << ", \"e2e_matches\": " << (e2e_matches ? "true" : "false")
         << ", \"requests_traced\": "
         << serving::trace_request_timelines(trace.events()).size()
         << "},\n  \"timeseries\": "
         << serving::time_samples_json(metrics.timeseries)
         << ",\n  \"registry\": " << metrics.registry.to_json() << "},\n";

    const std::string trace_note =
        trace_dir.empty()
            ? std::string()
            : " -> " + trace_dir + "/bench_prefix_block16.trace.json";
    std::printf("  observability: %zu events, ttft %s, e2e %s, %zu samples%s\n",
                trace.events().size(), ttft_matches ? "reconciled" : "MISMATCH",
                e2e_matches ? "reconciled" : "MISMATCH",
                metrics.timeseries.size(), trace_note.c_str());
  }

  // --- SLO frontier: arrival rate x {fifo, edf} with deadlines ---------------
  // The canonical grid (traffic_profiles.h): deadline-carrying chat
  // traffic over a 30-simulated-second overload window.  FIFO serves
  // head-of-line and lets queueing delay blow every TTFT deadline under
  // overload; EDF sheds provably-late requests instead of spending
  // prefill on them, so its SLO attainment must strictly win at the
  // highest rate — the acceptance gate pins that ordering.
  const serving::ServingSweep slo_sweep =
      serving::slo_frontier_sweep(scenario_for(1).model, /*seed=*/42);
  const std::vector<serving::SweepCellResult> slo_cells =
      serving::run_serving_sweep(slo_sweep, sweep_options);

  AsciiTable slo_table(
      "SLO frontier — TTFT " + cell_f(serving::kSloTtftDeadline, 1) +
      " s / TPOT " + cell_f(serving::kSloTpotDeadline, 2) + " s deadlines, " +
      cell_f(serving::kSloFrontierHorizon, 0) + " s window");
  slo_table.set_header({"rate (req/s)", "admission", "attainment",
                        "SLO tokens/s", "tokens/s", "done", "shed dl",
                        "shed hz", "TTFT p50"});
  json << "  \"slo_frontier\": {\"ttft_deadline_s\": "
       << serving::kSloTtftDeadline
       << ", \"tpot_deadline_s\": " << serving::kSloTpotDeadline
       << ", \"horizon_s\": " << serving::kSloFrontierHorizon
       << ", \"requests\": " << serving::kSloFrontierRequests
       << ", \"rows\": [\n";
  first = true;
  for (const serving::SweepCellResult& cell : slo_cells) {
    const serving::ServingMetrics& metrics = cell.metrics;
    const std::string& admission =
        cell.point.scenario.scheduler.admission.policy;
    // Every arrived request either completed or was shed (deadline or
    // horizon), so the arrived count falls out of the counters.
    const std::int64_t arrived =
        metrics.completed + metrics.counters.total_shed();
    slo_table.add_row(
        {cell_f(cell.arrival_rate, 1), admission,
         cell_f(metrics.slo_attainment, 4),
         cell_f(metrics.slo_goodput_tokens_per_second, 1),
         cell_f(metrics.goodput_tokens_per_second, 1),
         cell_i(metrics.completed), cell_i(metrics.counters.shed_deadline),
         cell_i(metrics.counters.shed_horizon), format_time(metrics.ttft.p50)});
    if (!first) json << ",\n";
    first = false;
    json << "    {\"arrival_rate\": " << cell.arrival_rate
         << ", \"admission\": \"" << admission
         << "\", \"arrived\": " << arrived
         << ", \"completed\": " << metrics.completed
         << ", \"shed_deadline\": " << metrics.counters.shed_deadline
         << ", \"shed_horizon\": " << metrics.counters.shed_horizon
         << ", \"slo_met\": " << metrics.slo_met
         << ", \"slo_attainment\": " << metrics.slo_attainment
         << ", \"slo_goodput_tokens_per_s\": "
         << metrics.slo_goodput_tokens_per_second
         << ", \"goodput_tokens_per_s\": "
         << metrics.goodput_tokens_per_second
         << ", \"ttft_p50_s\": " << metrics.ttft.p50
         << ", \"ttft_p99_s\": " << metrics.ttft.p99
         << ", \"tpot_p99_s\": " << metrics.tpot.p99
         << ", \"sim_wall_seconds\": " << metrics.sim_wall_seconds
         << ", \"steps_per_second\": " << metrics.steps_per_second << "}";
  }
  json << "\n  ]},\n";

  // --- Resilience: fault storm x recovery policy (schema v8) -----------------
  // The canonical fault storm (traffic_profiles.h) over the sweep's
  // resilience axes: fault-rate scales {0.5, 1} x recovery {off, on}.
  // Recovery (backoff re-admission + host-shadow KV restore + graceful
  // degradation) must strictly beat recovery-off on BOTH availability and
  // SLO goodput at the full storm — the pinned frontier the resilience
  // test gates.
  const serving::ServingSweep storm_sweep = serving::fault_storm_sweep(
      scenario_for(1).model, /*seed=*/42, /*fault_rates=*/{0.5, 1.0});
  const std::vector<serving::SweepCellResult> storm_cells =
      serving::run_serving_sweep(storm_sweep, sweep_options);
  // A cell's fault-rate scale, read back from its scaled kv-loss rate.
  const auto fault_rate_of = [&storm_sweep](
                                 const serving::SweepCellResult& cell) {
    return cell.point.scenario.fault.kv_loss_rate_per_s /
           storm_sweep.base.scenario.fault.kv_loss_rate_per_s;
  };

  AsciiTable storm_table(
      "Resilience — fault storm (seed " + cell_i(serving::kFaultStormSeed) +
      "), " + cell_f(serving::kFaultStormHorizon, 0) +
      " s window, recovery off vs on");
  storm_table.set_header({"fault rate", "recovery", "avail", "MTTR",
                          "SLO tokens/s", "done", "retries", "shed fault",
                          "wasted tok", "restores"});
  json << "  \"resilience\": {\"fault_seed\": " << serving::kFaultStormSeed
       << ", \"horizon_s\": " << serving::kFaultStormHorizon
       << ", \"requests\": " << serving::kSloFrontierRequests
       << ", \"rows\": [\n";
  first = true;
  for (const serving::SweepCellResult& cell : storm_cells) {
    const serving::ServingMetrics& metrics = cell.metrics;
    const bool recovery = cell.point.scenario.fault.recovery_enabled;
    const double fault_rate = fault_rate_of(cell);
    storm_table.add_row(
        {cell_f(fault_rate, 2), recovery ? "on" : "off",
         cell_f(metrics.availability, 4), format_time(metrics.mttr_seconds),
         cell_f(metrics.slo_goodput_tokens_per_second, 1),
         cell_i(metrics.completed), cell_i(metrics.retries_total),
         cell_i(metrics.counters.shed_fault),
         cell_i(metrics.wasted_recompute_tokens),
         cell_i(metrics.fault.host_restores)});
    if (!first) json << ",\n";
    first = false;
    json << "    {\"fault_rate\": " << fault_rate
         << ", \"recovery\": " << (recovery ? "true" : "false")
         << ", \"availability\": " << metrics.availability
         << ", \"mttr_s\": " << metrics.mttr_seconds
         << ", \"retries\": " << metrics.retries_total
         << ", \"shed_fault\": " << metrics.counters.shed_fault
         << ", \"wasted_recompute_tokens\": "
         << metrics.wasted_recompute_tokens
         << ", \"stalls\": " << metrics.fault.stalls
         << ", \"kv_losses\": " << metrics.fault.kv_losses
         << ", \"device_failures\": " << metrics.fault.device_failures
         << ", \"host_restores\": " << metrics.fault.host_restores
         << ", \"degrade_enters\": " << metrics.fault.degrade_enters
         << ", \"completed\": " << metrics.completed
         << ", \"slo_goodput_tokens_per_s\": "
         << metrics.slo_goodput_tokens_per_second
         << ", \"goodput_tokens_per_s\": "
         << metrics.goodput_tokens_per_second
         << ", \"sim_wall_seconds\": " << metrics.sim_wall_seconds
         << ", \"steps_per_second\": " << metrics.steps_per_second << "}";
  }
  json << "\n  ]},\n";

  // --- Cluster: router policies + disaggregation (schema v9) -----------------
  // Both canonical grids (traffic_profiles.h).  Router study: the four
  // built-in policies over 4 replicas on the 16-prefix chatbot stream —
  // prefix_affinity's cluster-wide hit rate must beat round_robin's.
  // Disaggregation study: rate x {colocated, disaggregated}; at the top
  // rate the disaggregated p99 TTFT must beat colocated.  Both orderings
  // are pinned by the golden test.
  const std::vector<serving::Request> cluster_requests =
      serving::generate_requests(serving::cluster_chatbot_stream(/*seed=*/42));
  const std::vector<serving::SweepPoint> router_points =
      serving::cluster_router_grid_points(scenario_for(1).model,
                                          &cluster_requests);
  const std::vector<serving::ServingMetrics> router_results =
      serving::run_sweep(router_points, sweep_options);

  AsciiTable router_table(
      "Cluster router — " + cell_i(serving::kClusterReplicas) +
      " replicas, " + cell_i(serving::kClusterPrefixPool) +
      "-prefix chatbot stream, " + cell_i(serving::kClusterTenants) +
      " tenants");
  router_table.set_header({"router", "tokens/s", "TTFT p99", "hit rate",
                           "jain", "done"});
  json << "  \"cluster\": {\"replicas\": " << serving::kClusterReplicas
       << ", \"prefix_pool\": " << serving::kClusterPrefixPool
       << ", \"tenants\": " << serving::kClusterTenants
       << ", \"router_requests\": " << cluster_requests.size()
       << ", \"router_rows\": [\n";
  first = true;
  for (std::size_t i = 0; i < router_points.size(); ++i) {
    const serving::ServingMetrics& metrics = router_results[i];
    const std::string& policy = router_points[i].router_policy;
    router_table.add_row({policy,
                          cell_f(metrics.goodput_tokens_per_second, 1),
                          format_time(metrics.ttft.p99),
                          cell_f(metrics.prefix_hit_rate, 3),
                          cell_f(metrics.jain_fairness, 4),
                          cell_i(metrics.completed)});
    if (!first) json << ",\n";
    first = false;
    json << "    {\"router\": \"" << policy
         << "\", \"goodput_tokens_per_s\": "
         << metrics.goodput_tokens_per_second
         << ", \"ttft_p99_s\": " << metrics.ttft.p99
         << ", \"tpot_p99_s\": " << metrics.tpot.p99
         << ", \"prefix_hit_rate\": " << metrics.prefix_hit_rate
         << ", \"jain_across_replicas\": " << metrics.jain_fairness
         << ", \"completed\": " << metrics.completed
         << ", \"sim_wall_seconds\": " << metrics.sim_wall_seconds
         << ", \"steps_per_second\": " << metrics.steps_per_second << "}";
  }
  json << "\n  ],\n";

  const serving::ServingSweep disagg_sweep =
      serving::cluster_disaggregation_sweep(scenario_for(1).model, /*seed=*/42);
  const std::vector<serving::SweepCellResult> disagg_cells =
      serving::run_serving_sweep(disagg_sweep, sweep_options);

  AsciiTable disagg_table(
      "Prefill/decode disaggregation — " +
      cell_i(serving::kClusterReplicas) + " replicas (" +
      cell_i(serving::kClusterPrefillReplicas) +
      " prefill when disaggregated), zipf-chat traffic");
  disagg_table.set_header({"rate (req/s)", "mode", "TTFT p99", "TTFT p50",
                           "tokens/s", "done", "KV moved", "xfer s"});
  json << "  \"disaggregation\": {\"prefill_replicas\": "
       << serving::kClusterPrefillReplicas
       << ", \"requests\": " << serving::kClusterDisaggRequests
       << ", \"rows\": [\n";
  first = true;
  for (const serving::SweepCellResult& cell : disagg_cells) {
    const serving::ServingMetrics& metrics = cell.metrics;
    const bool disagg = cell.point.disaggregated;
    // Transfer accounting lives in the flattened cluster registry (zero
    // and absent when colocated).
    const serving::MetricsRegistry& registry = metrics.registry;
    const double transfer_seconds =
        registry.gauge_or_zero("cluster.kv_transfer_seconds");
    const std::int64_t transfer_bytes =
        registry.counter_or_zero("cluster.kv_transfer_bytes");
    disagg_table.add_row(
        {cell_f(cell.arrival_rate, 1), disagg ? "disagg" : "colocated",
         format_time(metrics.ttft.p99), format_time(metrics.ttft.p50),
         cell_f(metrics.goodput_tokens_per_second, 1),
         cell_i(metrics.completed),
         cell_f(static_cast<double>(transfer_bytes) / GiB, 2) + " GiB",
         cell_f(transfer_seconds, 3)});
    if (!first) json << ",\n";
    first = false;
    json << "    {\"arrival_rate\": " << cell.arrival_rate
         << ", \"disaggregated\": " << (disagg ? "true" : "false")
         << ", \"ttft_p99_s\": " << metrics.ttft.p99
         << ", \"ttft_p50_s\": " << metrics.ttft.p50
         << ", \"tpot_p99_s\": " << metrics.tpot.p99
         << ", \"goodput_tokens_per_s\": "
         << metrics.goodput_tokens_per_second
         << ", \"completed\": " << metrics.completed
         << ", \"kv_transfer_count\": "
         << registry.counter_or_zero("cluster.kv_transfer_count")
         << ", \"kv_transfer_blocks\": "
         << registry.counter_or_zero("cluster.kv_transfer_blocks")
         << ", \"kv_transfer_bytes\": " << transfer_bytes
         << ", \"kv_transfer_seconds\": " << transfer_seconds
         << ", \"jain_across_replicas\": " << metrics.jain_fairness
         << ", \"sim_wall_seconds\": " << metrics.sim_wall_seconds
         << ", \"steps_per_second\": " << metrics.steps_per_second << "}";
  }
  // Two closers: the "disaggregation" sub-object and the "cluster" block
  // it nests inside.
  json << "\n  ]}},\n";

  std::int64_t total_steps = 0;
  for (const serving::SweepCellResult& result : baseline) {
    total_steps += result.metrics.total_steps;
  }
  for (const serving::ServingMetrics& metrics : policy_results) {
    total_steps += metrics.total_steps;
  }
  // Per-grid worker counts as actually resolved by run_sweep (the two
  // grids differ in size, so they may clamp differently).
  const int baseline_threads = serving::resolve_sweep_threads(
      sweep_options.threads, baseline.size());
  const int policy_threads = serving::resolve_sweep_threads(
      sweep_options.threads, policy_points.size());
  // The sweep block keeps counting the baseline + policy grids only, so
  // its points/total_steps stay comparable across the schema-v3 -> v4
  // boundary; the fairness grid reports inside its own block.
  json << "  \"sweep\": {\"points\": "
       << baseline.size() + policy_points.size()
       << ", \"threads_baseline\": " << baseline_threads
       << ", \"threads_policies\": " << policy_threads
       << ", \"wall_seconds\": " << sweep_wall
       << ", \"total_steps\": " << total_steps << ", \"steps_per_second\": "
       << (sweep_wall > 0 ? static_cast<double>(total_steps) / sweep_wall : 0)
       << "}\n}\n";
  json.close();
  table.print();
  policy_table.print();
  fairness_table.print();
  prefix_table.print();
  slo_table.print();
  storm_table.print();
  router_table.print();
  disagg_table.print();
  std::printf("  wrote BENCH_serving.json (%zu sweep points, %d/%d threads, "
              "%.3f s wall, %lld steps)\n",
              baseline.size() + policy_points.size(), baseline_threads,
              policy_threads, sweep_wall,
              static_cast<long long>(total_steps));
  std::printf("  fairness: wfq jain %.4f vs fifo jain %.4f (2 tenants, 3:1 "
              "weights)\n",
              fairness_results[1].jain_fairness,
              fairness_results[0].jain_fairness);
  std::printf("  prefix cache: hit rate %.3f, goodput %.1f vs %.1f tokens/s "
              "off (block 16)\n",
              prefix_results[1].prefix_hit_rate,
              prefix_results[1].goodput_tokens_per_second,
              prefix_results[0].goodput_tokens_per_second);
  // Grid order is rate-major with admission {fifo, edf} innermost, so the
  // last two cells are the highest rate's fifo/edf pair.
  std::printf("  slo frontier: at %.0f req/s attainment edf %.4f vs fifo "
              "%.4f (SLO goodput %.1f vs %.1f tokens/s)\n",
              slo_cells[slo_cells.size() - 2].arrival_rate,
              slo_cells[slo_cells.size() - 1].metrics.slo_attainment,
              slo_cells[slo_cells.size() - 2].metrics.slo_attainment,
              slo_cells[slo_cells.size() - 1]
                  .metrics.slo_goodput_tokens_per_second,
              slo_cells[slo_cells.size() - 2]
                  .metrics.slo_goodput_tokens_per_second);
  // Grid order is fault-rate-major with recovery {off, on} innermost, so
  // the last two cells are the full storm's off/on pair.
  std::printf("  resilience: at fault rate %.1f availability recovery-on "
              "%.4f vs off %.4f (SLO goodput %.1f vs %.1f tokens/s)\n",
              fault_rate_of(storm_cells[storm_cells.size() - 2]),
              storm_cells[storm_cells.size() - 1].metrics.availability,
              storm_cells[storm_cells.size() - 2].metrics.availability,
              storm_cells[storm_cells.size() - 1]
                  .metrics.slo_goodput_tokens_per_second,
              storm_cells[storm_cells.size() - 2]
                  .metrics.slo_goodput_tokens_per_second);
  // Row order follows cluster_router_policy_order(): round_robin first,
  // prefix_affinity third.
  std::printf("  cluster: prefix_affinity hit rate %.3f vs round_robin "
              "%.3f (%d replicas, jain %.4f vs %.4f)\n",
              router_results[2].prefix_hit_rate,
              router_results[0].prefix_hit_rate, serving::kClusterReplicas,
              router_results[2].jain_fairness,
              router_results[0].jain_fairness);
  // Grid order is rate-major with disaggregation {off, on} innermost, so
  // the last two cells are the top rate's colocated/disaggregated pair.
  std::printf("  disaggregation: at %.0f req/s TTFT p99 disagg %.3f s vs "
              "colocated %.3f s (%.2f GiB KV streamed)\n",
              disagg_cells[disagg_cells.size() - 2].arrival_rate,
              disagg_cells[disagg_cells.size() - 1].metrics.ttft.p99,
              disagg_cells[disagg_cells.size() - 2].metrics.ttft.p99,
              static_cast<double>(
                  disagg_cells[disagg_cells.size() - 1]
                      .metrics.registry.counter_or_zero(
                          "cluster.kv_transfer_bytes")) /
                  GiB);

  return bench::run_microbenchmarks(argc, argv);
}

}  // namespace

int main(int argc, char** argv) {
  // One top-level catch: a bad flag, env value, or config prints one line
  // and exits 2 instead of aborting.
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_serving: %s\n", error.what());
    return 2;
  }
}
