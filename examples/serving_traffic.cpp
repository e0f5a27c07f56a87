// Request-level serving-traffic simulation: replay a stochastic request
// stream (Poisson or bursty arrivals, Zipf-tailed prompt/output lengths)
// through vLLM-style continuous batching on the simulated TPU, and report
// the serving metrics that a fixed single-batch evaluation cannot see —
// TTFT/TPOT percentiles, goodput, energy per token, and utilization — for
// a single chip and a 4-chip pipeline, followed by a preemption-policy x
// chunked-prefill comparison under a deliberately tight KV budget, and a
// multi-tenant admission demo (FIFO vs weighted fair queueing at 3:1
// tenant weights) with per-tenant goodput shares and Jain fairness, and an
// SLO-aware scheduling demo (FIFO vs earliest-deadline-first admission on
// deadline-carrying traffic, and a staggered diurnal tenant mix).
//
// All deployments run on the deterministic parallel sweep driver
// (serving/sweep.h), one in-process thread pool: CIMTPU_SWEEP_THREADS sets
// the worker count, and the metrics are bit-identical whatever that count
// is.
//
// Usage:
//   ./serving_traffic [model] [requests] [rate_req_s] [seed] [process] [dtype]
//                     [--trace-dir <dir>] [--fault-storm] [--cluster]
//   ./serving_traffic llama2-7b 10000 20 42 poisson int4
//   ./serving_traffic llama2-7b 2000 20 42 poisson int4 --trace-dir traces
//
// A fixed seed reproduces bit-identical metrics run to run; everything on
// stdout is deterministic (wall-clock timing, thread count, and trace file
// paths go to stderr), so CI diffs two runs — or a serial run against a
// parallel one — byte for byte.  With --trace-dir the observability demo
// additionally writes Perfetto trace files there (open them in
// https://ui.perfetto.dev); those files are deterministic too.
// --fault-storm appends the fault-injection demo: the canonical seeded
// fault storm (traffic_profiles.h) with recovery off vs on, on the sweep
// driver — its stdout (and, with --trace-dir, its per-cell trace files)
// is byte-identical whatever CIMTPU_SWEEP_THREADS says, which the CI
// determinism job checks.  --cluster appends the cluster-scale serving
// demo (serving/cluster.h): a per-replica breakdown of one 4-replica
// prefix-affinity run, the canonical router-policy comparison, and the
// colocated-vs-disaggregated frontier — the same grids bench_serving's
// schema-v9 "cluster" block pins, with kRoute/kKvTransfer trace files
// under --trace-dir.
//
// Bad input fails loudly: an unknown flag, more than six positional
// arguments, a positional argument that is not a whole number (e.g. rate
// "abc"), an unknown model, an arrival process other than poisson|bursty,
// or an unknown dtype prints one "serving_traffic: <message>" line to
// stderr and exits 2.

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <utility>

#include "common/status.h"
#include "common/table.h"
#include "common/units.h"
#include "ir/dtype.h"
#include "models/model_zoo.h"
#include "serving/cluster.h"
#include "serving/sweep.h"
#include "serving/trace.h"
#include "serving/traffic_profiles.h"

using namespace cimtpu;

namespace {

// Strict positional-argument parsing: the whole argument must parse (no
// atof-style silent 0 for "abc"), or a ConfigError names it.
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

int run(int argc, char** argv) {
  // Strip flag arguments first so the positional [model] [requests] ...
  // interface keeps working with or without flags, in any position.
  // Unknown "--" flags are rejected loudly: a typo like --trace-dri
  // silently ignored would run the wrong experiment.
  std::string trace_dir;
  bool fault_storm = false;
  bool cluster = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-dir") == 0) {
      CIMTPU_CONFIG_CHECK(i + 1 < argc, "--trace-dir requires a value");
      trace_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--fault-storm") == 0) {
      fault_storm = true;
    } else if (std::strcmp(argv[i], "--cluster") == 0) {
      cluster = true;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      throw ConfigError("unknown flag '" + std::string(argv[i]) +
                        "' (expected --trace-dir <dir>, --fault-storm, or "
                        "--cluster)");
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  CIMTPU_CONFIG_CHECK(argc <= 7, "unexpected argument '"
                                     << argv[7]
                                     << "' (expected at most [model] "
                                        "[requests] [rate_req_s] [seed] "
                                        "[process] [dtype])");

  serving::RequestStreamConfig stream = serving::zipf_chat_stream(
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

  serving::ServingScenario scenario = serving::llama7b_baseline_scenario(
      /*chips=*/1, argc > 6 ? ir::dtype_from_name(argv[6]) : ir::DType::kInt4);
  if (argc > 1) {
    const ir::DType dtype = scenario.model.dtype;
    scenario.model = models::model_by_name(argv[1]);
    scenario.model.dtype = dtype;
  }

  std::printf(
      "Serving traffic: %s (%s), %lld requests, %s arrivals at %.1f req/s, "
      "seed %llu\n\n",
      scenario.model.name.c_str(), ir::dtype_name(scenario.model.dtype).c_str(),
      static_cast<long long>(stream.num_requests),
      serving::arrival_process_name(stream.process).c_str(),
      stream.arrival_rate, static_cast<unsigned long long>(stream.seed));

  const std::vector<serving::Request> requests =
      serving::generate_requests(stream);
  // Both sweeps share one cost cache (same chip and model signature), so
  // the policy comparison starts from the chip comparison's warm store.
  serving::SharedStepCostCache shared_costs;
  serving::SweepOptions sweep_options;  // threads from env / hardware
  sweep_options.shared_cache = &shared_costs;
  const auto wall_start = std::chrono::steady_clock::now();

  // --- Chip-count comparison on the sweep driver -----------------------------
  const std::vector<int> chip_counts = {1, 4};
  std::vector<serving::SweepPoint> chip_points;
  for (int chips : chip_counts) {
    serving::SweepPoint point;
    point.label = "chips=" + cell_i(chips);
    point.scenario = scenario;
    point.scenario.chips = chips;
    point.requests = &requests;
    chip_points.push_back(std::move(point));
  }
  const std::vector<serving::ServingMetrics> chip_results =
      serving::run_sweep(chip_points, sweep_options);

  AsciiTable table("Continuous-batching serving metrics (TPUv4i baseline)");
  table.set_header({"chips", "TTFT p50", "TTFT p99", "TPOT p50", "TPOT p99",
                    "e2e p99", "tokens/s", "J/token", "MXU util",
                    "steps", "preempt"});
  for (std::size_t i = 0; i < chip_counts.size(); ++i) {
    const serving::ServingMetrics& metrics = chip_results[i];
    const int chips = chip_counts[i];
    table.add_row({cell_i(chips), format_time(metrics.ttft.p50),
                   format_time(metrics.ttft.p99), format_time(metrics.tpot.p50),
                   format_time(metrics.tpot.p99), format_time(metrics.e2e.p99),
                   cell_f(metrics.goodput_tokens_per_second, 1),
                   format_energy(metrics.energy_per_token),
                   cell_f(100.0 * metrics.mxu_utilization, 1) + "%",
                   cell_i(metrics.total_steps), cell_i(metrics.preemptions)});
    std::printf(
        "chips=%d: completed %lld/%lld requests (%lld tokens) over %s "
        "simulated; cost cache %zu shapes (%lld hits / %lld misses)\n",
        chips, static_cast<long long>(metrics.completed),
        static_cast<long long>(metrics.num_requests),
        static_cast<long long>(metrics.generated_tokens),
        format_time(metrics.makespan).c_str(), metrics.cost_cache_entries,
        static_cast<long long>(metrics.cost_cache_hits),
        static_cast<long long>(metrics.cost_cache_misses));
  }
  std::printf("\n");
  table.print();

  // --- Preemption policy x chunked prefill under KV pressure -----------------
  // Same model on one chip, but the KV budget capped at 8000 cached tokens
  // (~10x below HBM headroom) so eviction policies actually fire.  Swap
  // victims keep their decode progress and pay PCIe; recompute victims
  // re-prefill; priority victims concentrate evictions on the lowest
  // priority class (the stream tags 3 classes).
  serving::RequestStreamConfig pressured_stream = stream;
  pressured_stream.num_requests =
      std::min<std::int64_t>(stream.num_requests, 2000);
  pressured_stream.priority_classes = 3;
  const std::vector<serving::Request> pressured_requests =
      serving::generate_requests(pressured_stream);

  // The CANONICAL pressured grid (traffic_profiles.h): the same policy x
  // chunk points bench_serving benchmarks, at the CLI-chosen model.
  const std::vector<serving::SweepPoint> policy_points =
      serving::pressured_policy_grid_points(scenario.model,
                                            &pressured_requests,
                                            /*kv_budget_tokens=*/8000);
  const std::vector<serving::ServingMetrics> policy_results =
      serving::run_sweep(policy_points, sweep_options);

  AsciiTable policy_table(
      "Preemption policy comparison — 8000-token KV budget, " +
      cell_i(pressured_stream.num_requests) + " requests");
  policy_table.set_header({"policy", "chunk", "TTFT p99", "TPOT p99",
                           "e2e p99", "tokens/s", "preempt", "swapped",
                           "swap GiB", "chunk steps"});
  for (std::size_t i = 0; i < policy_points.size(); ++i) {
    const serving::ServingMetrics& metrics = policy_results[i];
    const serving::ServingScenario& point = policy_points[i].scenario;
    const std::int64_t chunk = point.scheduler.prefill_chunk_tokens;
    policy_table.add_row(
        {serving::eviction_policy_name(point.eviction),
         chunk == 0 ? "off" : cell_i(chunk), format_time(metrics.ttft.p99),
         format_time(metrics.tpot.p99), format_time(metrics.e2e.p99),
         cell_f(metrics.goodput_tokens_per_second, 1),
         cell_i(metrics.counters.preemptions_recompute),
         cell_i(metrics.counters.preemptions_swap),
         cell_f(metrics.counters.total_swap_bytes() / GiB, 2),
         cell_i(metrics.counters.chunked_prefill_steps)});
  }
  std::printf("\n");
  policy_table.print();

  // --- Multi-tenant admission: FIFO vs weighted fair queueing ----------------
  // Two tenants at 3:1 admission weights over a fixed 30-simulated-second
  // OVERLOAD window (the horizon keeps both tenants backlogged, so
  // per-tenant goodput reflects the admission policy's share enforcement,
  // not the traffic mix — a full drain would always end near the ~1:1
  // arrival split).  FIFO ignores tenants; WFQ's goodput ratio tracks the
  // 3:1 weights and its weight-normalized Jain index approaches 1.
  const std::vector<serving::Request> tenant_requests =
      serving::generate_requests(serving::multi_tenant_pressure_stream(
          stream.seed, /*num_requests=*/400, /*arrival_rate=*/50.0,
          /*num_tenants=*/2));
  // The CANONICAL fairness grid (traffic_profiles.h): the same fifo/wfq
  // points bench_serving reports, at the CLI-chosen model and seed.
  const std::vector<serving::SweepPoint> tenant_points =
      serving::multi_tenant_fairness_points(scenario.model,
                                            &tenant_requests);
  const std::vector<serving::ServingMetrics> tenant_results =
      serving::run_sweep(tenant_points, sweep_options);

  AsciiTable tenant_table(
      "Multi-tenant admission — 2 tenants, weights 3:1, 30 s overload "
      "window, 2000-token KV budget");
  tenant_table.set_header({"admission", "tenant", "weight", "arrived", "done",
                           "tokens", "TTFT p50", "TTFT p99", "tokens/s",
                           "share"});
  std::printf("\n");
  for (std::size_t i = 0; i < tenant_points.size(); ++i) {
    const serving::ServingMetrics& metrics = tenant_results[i];
    const std::string admission =
        tenant_points[i].scenario.scheduler.admission.policy;
    if (i > 0) tenant_table.add_separator();
    double total_goodput = 0;
    for (const serving::TenantMetrics& tenant : metrics.tenants) {
      total_goodput += tenant.goodput_tokens_per_second;
    }
    for (const serving::TenantMetrics& tenant : metrics.tenants) {
      tenant_table.add_row(
          {admission, cell_i(tenant.tenant_id), cell_f(tenant.weight, 1),
           cell_i(tenant.num_requests), cell_i(tenant.completed),
           cell_i(tenant.generated_tokens), format_time(tenant.ttft.p50),
           format_time(tenant.ttft.p99),
           cell_f(tenant.goodput_tokens_per_second, 1),
           total_goodput > 0
               ? cell_f(100.0 * tenant.goodput_tokens_per_second /
                            total_goodput,
                        1) + "%"
               : "n/a"});
    }
    std::printf(
        "admission=%s: jain fairness (weight-normalized) %.4f, completed "
        "%lld/%lld within the %.0f s window\n",
        admission.c_str(), metrics.jain_fairness,
        static_cast<long long>(metrics.completed),
        static_cast<long long>(metrics.num_requests),
        serving::kMultiTenantFairnessHorizon);
  }
  std::printf("\n");
  tenant_table.print();

  // --- Paged KV: prefix caching on shared system prompts ---------------------
  // Chatbot traffic where every request opens with one of 4 shared
  // 1000-token system prompts (prefix_chatbot_stream).  With the prefix
  // cache ON, repeat prefixes map the cached KV blocks by reference and
  // skip their prefill entirely — hit rate, blocks saved, copy-on-write
  // tail copies, and the block allocator's internal fragmentation are the
  // new schema-v5 observables.
  const std::vector<serving::Request> prefix_requests =
      serving::generate_requests(serving::prefix_chatbot_stream(
          stream.seed, /*num_requests=*/400, /*arrival_rate=*/30.0));
  const std::vector<serving::SweepPoint> prefix_points =
      serving::prefix_cache_grid_points(scenario.model, &prefix_requests);
  const std::vector<serving::ServingMetrics> prefix_results =
      serving::run_sweep(prefix_points, sweep_options);

  AsciiTable prefix_table(
      "Paged KV prefix caching — " + cell_i(serving::kPrefixChatbotPool) +
      " shared " + cell_i(serving::kPrefixChatbotPrefixLen) +
      "-token system prompts, 20000-token KV budget, 400 requests");
  prefix_table.set_header({"block", "prefix cache", "TTFT p50", "TTFT p99",
                           "tokens/s", "hit rate", "blocks saved", "CoW",
                           "frag", "preempt"});
  std::printf("\n");
  for (std::size_t i = 0; i < prefix_points.size(); ++i) {
    const serving::ServingMetrics& metrics = prefix_results[i];
    const serving::SchedulerConfig& sched =
        prefix_points[i].scenario.scheduler;
    prefix_table.add_row(
        {cell_i(sched.kv_block_tokens),
         sched.enable_prefix_cache ? "on" : "off",
         format_time(metrics.ttft.p50), format_time(metrics.ttft.p99),
         cell_f(metrics.goodput_tokens_per_second, 1),
         cell_f(metrics.prefix_hit_rate, 3),
         cell_i(metrics.counters.prefix_shared_blocks),
         cell_i(metrics.counters.prefix_cow_blocks),
         cell_f(metrics.kv_internal_fragmentation, 4),
         cell_i(metrics.preemptions)});
    if (sched.enable_prefix_cache) {
      std::printf(
          "prefix_cache=on block=%lld: hit rate %.3f (%lld of %lld prefix "
          "tokens served from cache), %lld blocks saved, %lld CoW copies\n",
          static_cast<long long>(sched.kv_block_tokens),
          metrics.prefix_hit_rate,
          static_cast<long long>(metrics.counters.prefix_hit_tokens),
          static_cast<long long>(metrics.counters.prefix_lookup_tokens),
          static_cast<long long>(metrics.counters.prefix_shared_blocks),
          static_cast<long long>(metrics.counters.prefix_cow_blocks));
    }
  }
  std::printf("\n");
  prefix_table.print();

  // --- SLO-aware scheduling: FIFO vs EDF on deadline-carrying traffic --------
  // The canonical SLO frontier (traffic_profiles.h): every request carries
  // jittered TTFT/TPOT deadlines, and the grid sweeps arrival rate x
  // admission {fifo, edf} over a 30-simulated-second overload window.
  // FIFO serves head-of-line, so under overload queueing delay blows every
  // TTFT deadline; EDF admission control sheds provably-late requests
  // instead of spending prefill on them, and its attainment / SLO goodput
  // pull ahead as the rate climbs.
  const serving::ServingSweep slo_sweep =
      serving::slo_frontier_sweep(scenario.model, stream.seed);
  const std::vector<serving::SweepCellResult> slo_cells =
      serving::run_serving_sweep(slo_sweep, sweep_options);

  AsciiTable slo_table(
      "SLO frontier — TTFT " + cell_f(serving::kSloTtftDeadline, 1) +
      " s / TPOT " + cell_f(serving::kSloTpotDeadline, 2) +
      " s deadlines, 30 s overload window");
  slo_table.set_header({"rate (req/s)", "admission", "attainment",
                        "SLO tokens/s", "tokens/s", "done", "shed dl",
                        "shed hz", "TTFT p50", "TTFT p99"});
  std::printf("\n");
  for (const serving::SweepCellResult& cell : slo_cells) {
    const serving::ServingMetrics& metrics = cell.metrics;
    const std::string& admission =
        cell.point.scenario.scheduler.admission.policy;
    const std::int64_t arrived =
        metrics.completed + metrics.counters.total_shed();
    slo_table.add_row(
        {cell_f(cell.arrival_rate, 1), admission,
         cell_f(metrics.slo_attainment, 4),
         cell_f(metrics.slo_goodput_tokens_per_second, 1),
         cell_f(metrics.goodput_tokens_per_second, 1),
         cell_i(metrics.completed), cell_i(metrics.counters.shed_deadline),
         cell_i(metrics.counters.shed_horizon),
         format_time(metrics.ttft.p50), format_time(metrics.ttft.p99)});
    std::printf(
        "admission=%s rate=%.0f: slo attainment %.4f (%lld of %lld arrived "
        "met deadlines), shed %lld deadline + %lld horizon\n",
        admission.c_str(), cell.arrival_rate, metrics.slo_attainment,
        static_cast<long long>(metrics.slo_met),
        static_cast<long long>(arrived),
        static_cast<long long>(metrics.counters.shed_deadline),
        static_cast<long long>(metrics.counters.shed_horizon));
  }
  std::printf("\n");
  slo_table.print();

  // Production-shaped mix: three tenants on staggered diurnal cycles —
  // time-zone-offset populations whose peaks sweep around the period.
  const std::vector<serving::Request> diurnal_requests =
      serving::diurnal_tenant_mix_requests(stream.seed,
                                           /*requests_per_tenant=*/200,
                                           /*per_tenant_rate=*/5.0,
                                           /*num_tenants=*/3);
  std::int64_t diurnal_per_tenant[3] = {0, 0, 0};
  for (const serving::Request& request : diurnal_requests) {
    diurnal_per_tenant[request.tenant_id] += 1;
  }
  std::printf("diurnal tenant mix: %zu requests over %s (3 tenants x "
              "%lld/%lld/%lld, staggered peaks)\n",
              diurnal_requests.size(),
              format_time(diurnal_requests.back().arrival_time).c_str(),
              static_cast<long long>(diurnal_per_tenant[0]),
              static_cast<long long>(diurnal_per_tenant[1]),
              static_cast<long long>(diurnal_per_tenant[2]));

  // --- Observability: traced replay of the prefix-cache deployment -----------
  // Re-run the block-16 caching-on point with event tracing and 0.5 s
  // time-series sampling.  Tracing is contractually metrics-neutral, so
  // this run's metrics equal the untraced sweep row above bit for bit —
  // checked and printed.  The trace is then reconciled against the
  // metrics: TTFT/e2e summaries recomputed purely from trace events must
  // match ServingMetrics exactly.
  serving::ServingScenario traced = prefix_points[1].scenario;
  traced.trace.enabled = true;
  traced.trace.sample_interval = 0.5;
  traced.trace.dir = trace_dir;  // empty: in-memory only
  traced.trace.label = "prefix_block16";
  traced.trace.write_jsonl = true;
  serving::ServingTrace trace;
  const serving::ServingMetrics traced_metrics =
      serving::run_serving(traced, prefix_requests, &shared_costs, &trace);
  const serving::ServingMetrics& untraced_metrics = prefix_results[1];

  std::map<std::string, std::int64_t> event_counts;
  for (const serving::TraceEvent& event : trace.events()) {
    event_counts[serving::trace_event_type_name(event.type)] += 1;
  }
  std::vector<double> trace_ttft_values, trace_e2e_values;
  const std::vector<serving::RequestTimeline> timelines =
      serving::trace_request_timelines(trace.events());
  for (const serving::RequestTimeline& timeline : timelines) {
    if (timeline.first_token >= 0) {
      trace_ttft_values.push_back(timeline.first_token - timeline.arrival);
    }
    if (timeline.completion >= 0) {
      trace_e2e_values.push_back(timeline.completion - timeline.arrival);
    }
  }
  const serving::LatencySummary trace_ttft =
      serving::summarize_latencies(std::move(trace_ttft_values));
  const serving::LatencySummary trace_e2e =
      serving::summarize_latencies(std::move(trace_e2e_values));
  const bool metrics_neutral =
      traced_metrics.goodput_tokens_per_second ==
          untraced_metrics.goodput_tokens_per_second &&
      traced_metrics.ttft.p99 == untraced_metrics.ttft.p99 &&
      traced_metrics.e2e.p99 == untraced_metrics.e2e.p99 &&
      traced_metrics.preemptions == untraced_metrics.preemptions &&
      traced_metrics.completed == untraced_metrics.completed;
  const bool ttft_reconciles = trace_ttft.count == traced_metrics.ttft.count &&
                               trace_ttft.mean == traced_metrics.ttft.mean &&
                               trace_ttft.p50 == traced_metrics.ttft.p50 &&
                               trace_ttft.p99 == traced_metrics.ttft.p99 &&
                               trace_ttft.max == traced_metrics.ttft.max;
  const bool e2e_reconciles = trace_e2e.count == traced_metrics.e2e.count &&
                              trace_e2e.mean == traced_metrics.e2e.mean &&
                              trace_e2e.p50 == traced_metrics.e2e.p50 &&
                              trace_e2e.p99 == traced_metrics.e2e.p99 &&
                              trace_e2e.max == traced_metrics.e2e.max;

  std::printf("\nObservability — traced replay of prefix_cache=on block=16:\n");
  std::printf("  events:");
  for (const auto& [name, count] : event_counts) {
    std::printf(" %s=%lld", name.c_str(), static_cast<long long>(count));
  }
  std::printf("\n  timeseries samples: %zu (0.5 s interval)\n",
              traced_metrics.timeseries.size());
  std::printf("  tracing metrics-neutral vs untraced run: %s\n",
              metrics_neutral ? "yes" : "NO — BUG");
  std::printf("  trace-vs-metrics TTFT reconciliation: %s (count %lld, "
              "p99 %.9f s)\n",
              ttft_reconciles ? "exact" : "MISMATCH",
              static_cast<long long>(trace_ttft.count), trace_ttft.p99);
  std::printf("  trace-vs-metrics e2e reconciliation: %s (count %lld, "
              "p99 %.9f s)\n",
              e2e_reconciles ? "exact" : "MISMATCH",
              static_cast<long long>(trace_e2e.count), trace_e2e.p99);

  if (!trace_dir.empty()) {
    // Paths are environment-dependent: stderr, like the timing footer.
    std::fprintf(stderr, "trace files: %s/prefix_block16.trace.json, "
                         "%s/prefix_block16.jsonl\n",
                 trace_dir.c_str(), trace_dir.c_str());

    // Traced SWEEP demo: run_serving_sweep derives one trace label per
    // grid cell, so every point lands in its own file set — and because
    // events carry only simulated time, the files are byte-identical
    // whatever CIMTPU_SWEEP_THREADS says (the CI determinism job diffs
    // them across thread counts).
    serving::ServingSweep traced_sweep;
    traced_sweep.arrival_rates = {30.0};
    traced_sweep.base.scenario = traced;
    traced_sweep.base.scenario.trace.label = "sweep";
    traced_sweep.base.scenario.trace.sample_interval = 0;  // events only
    const std::vector<serving::EvictionPolicy> policies = {
        serving::EvictionPolicy::kPreemptNewest,
        serving::EvictionPolicy::kSwapToHost};
    traced_sweep.axes = {
        {"policy",
         {serving::eviction_policy_name(policies[0]),
          serving::eviction_policy_name(policies[1])},
         [policies](serving::SweepPoint& point, std::size_t i) {
           point.scenario.eviction = policies[i];
         }}};
    traced_sweep.stream = serving::prefix_chatbot_stream(
        stream.seed, /*num_requests=*/400, /*arrival_rate=*/30.0);
    const std::vector<serving::SweepCellResult> traced_cells =
        serving::run_serving_sweep(traced_sweep, sweep_options);
    std::fprintf(stderr, "traced sweep: %zu per-point trace files in %s\n",
                 traced_cells.size(), trace_dir.c_str());
  }

  if (fault_storm) {
    // --- Fault injection & recovery: the canonical seeded storm --------------
    // The canonical fault storm (traffic_profiles.h) — transient stalls,
    // KV-block losses restored from the host shadow, and full device
    // restarts, all from the dedicated fault seed — with recovery off vs
    // on via the sweep's resilience axes.  Recovery (backoff re-admission
    // + host restore + graceful degradation) strictly beats dropping
    // every fault-hit request on BOTH availability and SLO goodput.
    // Everything printed here is simulated-time deterministic: the CI
    // determinism job diffs this section across sweep thread counts.
    serving::ServingSweep storm_sweep = serving::fault_storm_sweep(
        scenario.model, stream.seed, /*fault_rates=*/{1.0});
    if (!trace_dir.empty()) {
      // Per-cell trace files (run_serving_sweep derives one label per
      // cell): kFault/kRecover/kDegrade events land in the Perfetto and
      // JSONL outputs, byte-identical across thread counts.
      serving::TraceConfig& trace = storm_sweep.base.scenario.trace;
      trace.enabled = true;
      trace.dir = trace_dir;
      trace.label = "fault_storm";
      trace.write_jsonl = true;
    }
    const std::vector<serving::SweepCellResult> storm_cells =
        serving::run_serving_sweep(storm_sweep, sweep_options);

    AsciiTable storm_table(
        "Fault storm — seed " + cell_i(serving::kFaultStormSeed) + ", " +
        cell_f(serving::kFaultStormHorizon, 0) +
        " s window, recovery off vs on");
    storm_table.set_header({"recovery", "avail", "MTTR", "SLO tokens/s",
                            "done", "retries", "shed fault", "wasted tok",
                            "restores", "degraded"});
    std::printf("\n");
    for (const serving::SweepCellResult& cell : storm_cells) {
      const serving::ServingMetrics& metrics = cell.metrics;
      const bool recovery = cell.point.scenario.fault.recovery_enabled;
      storm_table.add_row(
          {recovery ? "on" : "off", cell_f(metrics.availability, 4),
           format_time(metrics.mttr_seconds),
           cell_f(metrics.slo_goodput_tokens_per_second, 1),
           cell_i(metrics.completed), cell_i(metrics.retries_total),
           cell_i(metrics.counters.shed_fault),
           cell_i(metrics.wasted_recompute_tokens),
           cell_i(metrics.fault.host_restores),
           cell_i(metrics.fault.degrade_enters)});
      std::printf(
          "fault_storm recovery=%s: availability %.4f, slo goodput %.1f "
          "tokens/s, %lld stalls + %lld kv losses + %lld device failures, "
          "%lld retries, %lld shed to faults, %lld wasted recompute "
          "tokens\n",
          recovery ? "on" : "off", metrics.availability,
          metrics.slo_goodput_tokens_per_second,
          static_cast<long long>(metrics.fault.stalls),
          static_cast<long long>(metrics.fault.kv_losses),
          static_cast<long long>(metrics.fault.device_failures),
          static_cast<long long>(metrics.retries_total),
          static_cast<long long>(metrics.counters.shed_fault),
          static_cast<long long>(metrics.wasted_recompute_tokens));
    }
    std::printf("\n");
    storm_table.print();
    if (!trace_dir.empty()) {
      std::fprintf(stderr, "fault storm: %zu per-cell trace files in %s\n",
                   storm_cells.size(), trace_dir.c_str());
    }
  }

  if (cluster) {
    // --- Cluster-scale serving: replicas, routers, disaggregation ------------
    // The canonical grids (traffic_profiles.h) — the same grids
    // bench_serving's schema-v9 "cluster" block pins.  Everything printed
    // here is simulated-time deterministic; the CI determinism job diffs
    // this section (and, with --trace-dir, the per-replica / router /
    // KV-transfer trace files) across sweep thread counts.
    const std::vector<serving::Request> cluster_requests =
        serving::generate_requests(
            serving::cluster_chatbot_stream(stream.seed));

    // Per-replica breakdown of ONE run: the prefix-affinity cluster, where
    // each of the 16 prefix families sticks to the replica whose cache is
    // warm.  Run directly (not flattened) so the per-replica rows are
    // visible.
    serving::ClusterConfig affinity_config;
    affinity_config.base =
        serving::prefix_cache_scenario(scenario.model.dtype,
                                       /*enable_prefix_cache=*/true);
    affinity_config.base.model = scenario.model;
    affinity_config.base.kv_budget_override =
        serving::KvCacheManager::token_bytes(scenario.model) * 20000.0;
    affinity_config.replicas.assign(serving::kClusterReplicas,
                                    serving::ReplicaSpec{});
    affinity_config.router_policy = "prefix_affinity";
    if (!trace_dir.empty()) {
      affinity_config.base.trace.enabled = true;
      affinity_config.base.trace.dir = trace_dir;
      affinity_config.base.trace.label = "cluster_affinity";
      affinity_config.base.trace.write_jsonl = true;
    }
    const serving::ClusterMetrics affinity = serving::run_serving_cluster(
        affinity_config, cluster_requests, &shared_costs);

    AsciiTable replica_table(
        "Cluster replicas — " + cell_i(serving::kClusterReplicas) +
        " x 1 chip, prefix_affinity router, " +
        cell_i(serving::kClusterPrefixPool) + "-prefix chatbot stream");
    replica_table.set_header({"replica", "chips", "done", "tokens",
                              "MXU util", "hit rate", "preempt"});
    for (std::size_t i = 0; i < affinity.replica_metrics.size(); ++i) {
      const serving::ServingMetrics& replica = affinity.replica_metrics[i];
      replica_table.add_row(
          {cell_i(i), cell_i(replica.chips), cell_i(replica.completed),
           cell_i(replica.generated_tokens),
           cell_f(100.0 * replica.mxu_utilization, 1) + "%",
           cell_f(replica.prefix_hit_rate, 3), cell_i(replica.preemptions)});
    }
    std::printf("\n");
    replica_table.print();
    std::printf(
        "cluster router=prefix_affinity: %lld/%lld requests over %s, "
        "cluster-wide hit rate %.3f, jain across replicas %.4f\n",
        static_cast<long long>(affinity.completed),
        static_cast<long long>(affinity.num_requests),
        format_time(affinity.makespan).c_str(), affinity.prefix_hit_rate,
        affinity.jain_across_replicas);

    // Router policy comparison on the canonical grid.
    const std::vector<serving::SweepPoint> router_points =
        serving::cluster_router_grid_points(scenario.model,
                                            &cluster_requests);
    const std::vector<serving::ServingMetrics> router_results =
        serving::run_sweep(router_points, sweep_options);

    AsciiTable router_table(
        "Router policies — " + cell_i(serving::kClusterReplicas) +
        " replicas, " + cell_i(serving::kClusterTenants) + " tenants");
    router_table.set_header({"router", "TTFT p50", "TTFT p99", "tokens/s",
                             "hit rate", "jain", "done"});
    for (std::size_t i = 0; i < router_points.size(); ++i) {
      const serving::ServingMetrics& metrics = router_results[i];
      router_table.add_row(
          {router_points[i].router_policy, format_time(metrics.ttft.p50),
           format_time(metrics.ttft.p99),
           cell_f(metrics.goodput_tokens_per_second, 1),
           cell_f(metrics.prefix_hit_rate, 3),
           cell_f(metrics.jain_fairness, 4), cell_i(metrics.completed)});
    }
    std::printf("\n");
    router_table.print();
    std::printf(
        "router comparison: prefix_affinity hit rate %.3f vs round_robin "
        "%.3f\n",
        router_results[2].prefix_hit_rate, router_results[0].prefix_hit_rate);

    // Colocated vs disaggregated frontier on the canonical sweep.
    serving::ServingSweep disagg_sweep =
        serving::cluster_disaggregation_sweep(scenario.model, stream.seed);
    if (!trace_dir.empty()) {
      // Per-cell trace files (run_serving_sweep derives one label per
      // cell): the disaggregated cells' router traces carry the kRoute and
      // kKvTransfer events, byte-identical across thread counts.
      serving::TraceConfig& trace = disagg_sweep.base.scenario.trace;
      trace.enabled = true;
      trace.dir = trace_dir;
      trace.label = "cluster_disagg";
      trace.write_jsonl = true;
    }
    const std::vector<serving::SweepCellResult> disagg_cells =
        serving::run_serving_sweep(disagg_sweep, sweep_options);

    AsciiTable disagg_table(
        "Prefill/decode disaggregation — " +
        cell_i(serving::kClusterReplicas) + " replicas (" +
        cell_i(serving::kClusterPrefillReplicas) +
        " prefill when disaggregated)");
    disagg_table.set_header({"rate (req/s)", "mode", "TTFT p50", "TTFT p99",
                             "tokens/s", "done", "KV moved", "xfer s"});
    for (const serving::SweepCellResult& cell : disagg_cells) {
      const serving::ServingMetrics& metrics = cell.metrics;
      const bool disagg = cell.point.disaggregated;
      const double transfer_bytes = static_cast<double>(
          metrics.registry.counter_or_zero("cluster.kv_transfer_bytes"));
      const double transfer_seconds =
          metrics.registry.gauge_or_zero("cluster.kv_transfer_seconds");
      disagg_table.add_row(
          {cell_f(cell.arrival_rate, 1), disagg ? "disagg" : "colocated",
           format_time(metrics.ttft.p50), format_time(metrics.ttft.p99),
           cell_f(metrics.goodput_tokens_per_second, 1),
           cell_i(metrics.completed),
           cell_f(transfer_bytes / GiB, 2) + " GiB",
           cell_f(transfer_seconds, 3)});
    }
    std::printf("\n");
    disagg_table.print();
    std::printf(
        "disaggregation: at %.0f req/s TTFT p99 disagg %s vs colocated "
        "%s\n",
        disagg_cells[disagg_cells.size() - 2].arrival_rate,
        format_time(
            disagg_cells[disagg_cells.size() - 1].metrics.ttft.p99)
            .c_str(),
        format_time(
            disagg_cells[disagg_cells.size() - 2].metrics.ttft.p99)
            .c_str());
    if (!trace_dir.empty()) {
      std::fprintf(stderr, "cluster: per-replica + router trace files in %s\n",
                   trace_dir.c_str());
    }
  }

  const auto wall_end = std::chrono::steady_clock::now();
  // stderr: timing and thread count are run-dependent; everything on
  // stdout is reproducible whatever CIMTPU_SWEEP_THREADS says.  The larger
  // grid (the policy sweep) determines the peak worker count.
  std::fprintf(
      stderr, "wall clock: %.2f s for all deployments (%d sweep threads)\n",
      std::chrono::duration<double>(wall_end - wall_start).count(),
      serving::resolve_sweep_threads(sweep_options.threads,
                                     policy_points.size()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // One top-level catch: bad input from the CLI, the env, or a config
  // prints one line and exits 2 instead of aborting.
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "serving_traffic: %s\n", error.what());
    return 2;
  }
}
