#include "traced.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <set>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "arch/chip.h"
#include "arch/tpu_config.h"
#include "serving/cluster.h"
#include "serving/kv_cache_manager.h"
#include "serving/scheduler.h"
#include "serving/step_cost_cache.h"
#include "sim/simulator.h"
#include "sim/workload_runner.h"

namespace cimbench {
namespace {

namespace arch = cimtpu::arch;
namespace models = cimtpu::models;
namespace sim = cimtpu::sim;
namespace systolic = cimtpu::systolic;

// Calls per pass for the direct layer timings, spread over the workload's
// distinct chip configurations.
constexpr std::int64_t kLayerCallsTarget = 2000;
constexpr std::int64_t kMxuCallsTarget = 100000;

volatile double g_sink = 0;  // keeps timed results observable

/// Heap bytes in use (glibc), the engine's resident footprint proxy.
double heap_bytes() {
#if defined(__GLIBC__)
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
#else
  return 0;
#endif
}

std::int64_t kv_blocks_allocated(const serving::ServingMetrics& metrics) {
  const auto& counters = metrics.registry.counters();
  const auto it = counters.find("kv.blocks_allocated_total");
  return it == counters.end() ? 0 : it->second;
}

double ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0;
}

/// run_serving_cluster on `point` as a `replicas`-way cluster, spanned as
/// "cluster" (the conversion run_sweep makes for a cluster cell).
serving::ClusterMetrics run_cluster(const serving::SweepPoint& point,
                                    int replicas,
                                    serving::SharedStepCostCache* shared,
                                    SpanRecorder& spans) {
  serving::ClusterConfig config;
  config.base = point.scenario;
  config.replicas.assign(
      static_cast<std::size_t>(replicas),
      serving::ReplicaSpec{point.scenario.chips,
                           point.scenario.tensor_parallel_ways});
  config.router_policy = point.router_policy;
  config.disaggregated = point.disaggregated;
  config.prefill_replicas = point.prefill_replicas;
  Span span(spans, spans.id("cluster"));
  return serving::run_serving_cluster(config, *point.requests, shared);
}

struct EnginePhase {
  std::vector<serving::ServingMetrics> cells;  ///< point order, flattened
  std::int64_t engine_steps = 0;     ///< single-engine cells
  std::int64_t engine_requests = 0;  ///< single-engine cells
  double heap_growth = 0;            ///< construct -> drained, summed
  std::int64_t cluster_steps = 0;
  std::int64_t kv_blocks = 0;
};

// Step 2: every point once, serially, spans around each engine call.
EnginePhase run_engine_phase(const Workload& workload, SpanRecorder& spans) {
  const int points_id = spans.id("points");
  const int point_id = spans.id("point");
  const int construct_id = spans.id("engine.construct");
  const int inject_id = spans.id("engine.inject");
  const int drain_id = spans.id("engine.drain");
  const int finish_id = spans.id("engine.finish");

  EnginePhase phase;
  serving::SharedStepCostCache shared;  // as run_sweep shares costs
  Span all(spans, points_id);
  for (const serving::SweepPoint& point : workload.points) {
    Span one(spans, point_id);
    if (point.replicas == 0) {
      const double heap_before = heap_bytes();
      std::unique_ptr<serving::ServingEngine> engine;
      {
        Span span(spans, construct_id);
        engine =
            std::make_unique<serving::ServingEngine>(point.scenario, &shared);
      }
      {
        Span span(spans, inject_id);
        for (const serving::Request& request : *point.requests) {
          engine->inject(request);
        }
      }
      {
        Span span(spans, drain_id);
        engine->drain();
      }
      phase.heap_growth += heap_bytes() - heap_before;
      serving::ServingMetrics metrics;
      {
        Span span(spans, finish_id);
        metrics = engine->finish();
      }
      phase.engine_steps += metrics.total_steps;
      phase.engine_requests +=
          static_cast<std::int64_t>(point.requests->size());
      phase.kv_blocks += kv_blocks_allocated(metrics);
      phase.cells.push_back(std::move(metrics));
    } else {
      serving::ClusterMetrics cluster =
          run_cluster(point, point.replicas, &shared, spans);
      for (const serving::ServingMetrics& replica : cluster.replica_metrics) {
        phase.cluster_steps += replica.total_steps;
        phase.kv_blocks += kv_blocks_allocated(replica);
      }
      phase.cells.push_back(serving::flatten_cluster_metrics(std::move(cluster)));
    }
  }
  return phase;
}

struct ReplayTotals {
  std::int64_t steps = 0;
  std::int64_t batch_sum = 0;
  std::int64_t misses = 0;
  double miss_ns = 0;  ///< time in cost_step calls that missed the cache
};

// Step 4: next_step + cost_step driven directly on one point's requests,
// with the point's own KV budget, eviction policy and scheduler knobs.
// The clock advances by each step's cost over the stage's layers (plus
// swap transfer time) and jumps to the next arrival when the scheduler
// runs dry.
void replay_point(const serving::SweepPoint& point,
                  serving::SharedStepCostCache* shared, SpanRecorder& spans,
                  ReplayTotals* totals) {
  const int next_step_id = spans.id("scheduler.next_step");
  const int cost_step_id = spans.id("step_cost.cost_step");
  const serving::ServingScenario& scenario = point.scenario;
  const serving::SchedulerConfig& config = scenario.scheduler;
  arch::TpuChip chip(scenario.chip_config);
  sim::Simulator simulator(chip);
  const cimtpu::Bytes budget =
      scenario.kv_budget_override > 0
          ? scenario.kv_budget_override
          : serving::KvCacheManager::hbm_kv_budget(
                scenario.model, chip.memory().spec().hbm.capacity,
                scenario.chips);
  serving::KvCacheManager kv_cache(
      budget, serving::KvCacheManager::token_bytes(scenario.model),
      scenario.eviction, scenario.host_pool_capacity, config.kv_block_tokens,
      config.enable_prefix_cache);
  serving::ContinuousBatchScheduler scheduler(config, &kv_cache);
  serving::StepCostCache costs(
      simulator, scenario.model, config.seqlen_bucket,
      shared->store(serving::cost_cache_signature(
          scenario.chip_config, scenario.model, config.seqlen_bucket)));
  serving::StepRecord record;
  // cost_step prices one layer; a step costs the bottleneck stage's layers.
  const auto stage_layers = static_cast<double>(
      (scenario.model.num_layers + scenario.chips - 1) / scenario.chips);

  const std::vector<serving::Request>& requests = *point.requests;
  std::size_t next = 0;
  double now = 0;
  for (;;) {
    while (next < requests.size() && requests[next].arrival_time <= now) {
      scheduler.enqueue(requests[next++]);
    }
    scheduler.set_time(now);
    spans.begin(next_step_id);
    const bool stepped = scheduler.next_step(&record);
    spans.end();
    if (!stepped) {
      if (next == requests.size()) break;
      now = requests[next].arrival_time;
      continue;
    }
    const std::int64_t misses_before = costs.misses();
    spans.begin(cost_step_id);
    const serving::StepCost cost = serving::cost_step(costs, record);
    const std::int64_t cost_ns = spans.end();
    if (costs.misses() > misses_before) {
      totals->misses += costs.misses() - misses_before;
      totals->miss_ns += static_cast<double>(cost_ns);
    }
    now += stage_layers * cost.latency +
           record.swap_bytes / scenario.host_link_bandwidth;
    ++totals->steps;
    totals->batch_sum += record.batch;
  }
}

struct LayerTimes {
  std::int64_t decode_calls = 0, prefill_calls = 0;
  std::int64_t cim_calls = 0, systolic_calls = 0;
};

using Deployment = std::pair<arch::TpuChipConfig, models::TransformerConfig>;

// Step 5: the transformer-layer models called directly, on a fixed shape
// set, for every distinct (chip, model) the workload's points use; and the
// MXU models on the same deployments, plus the canonical chip of an MXU
// kind the workload does not use, so both kinds are always timed.
LayerTimes time_layers(const Workload& workload, SpanRecorder& spans) {
  const int decode_id = spans.id("sim.decode_layer");
  const int prefill_id = spans.id("sim.prefill_layer");
  const int cim_id = spans.id("mxu.cim_eval");
  const int systolic_id = spans.id("mxu.systolic_eval");

  std::vector<Deployment> deployments;
  std::set<std::string> seen;
  bool has_cim = false, has_systolic = false;
  for (const serving::SweepPoint& point : workload.points) {
    const serving::ServingScenario& scenario = point.scenario;
    if (seen.insert(serving::cost_cache_signature(scenario.chip_config,
                                                  scenario.model, 1))
            .second) {
      deployments.emplace_back(scenario.chip_config, scenario.model);
      if (scenario.chip_config.mxu_kind == arch::MxuKind::kCim) {
        has_cim = true;
      } else {
        has_systolic = true;
      }
    }
  }
  std::vector<Deployment> mxu_deployments = deployments;
  const models::TransformerConfig& first_model = deployments.front().second;
  if (!has_cim) {
    mxu_deployments.emplace_back(arch::cim_tpu_default(), first_model);
  }
  if (!has_systolic) {
    mxu_deployments.emplace_back(arch::tpu_v4i_baseline(), first_model);
  }

  const std::int64_t decode_shapes[][2] = {{1, 256}, {1, 1024}, {1, 4096},
                                           {8, 256}, {8, 1024}, {8, 4096},
                                           {32, 256}, {32, 1024}, {32, 4096}};
  const std::int64_t prefill_shapes[][2] = {{1, 256}, {1, 1024}, {1, 4096},
                                            {8, 256}, {8, 1024}, {8, 4096}};
  const auto configs = static_cast<std::int64_t>(deployments.size());
  const std::int64_t layer_reps =
      std::max<std::int64_t>(1, kLayerCallsTarget / (configs * 9));

  LayerTimes times;
  double sink = 0;
  for (const auto& [chip_config, model] : deployments) {
    arch::TpuChip chip(chip_config);
    sim::Simulator simulator(chip);
    {
      Span span(spans, decode_id);
      for (std::int64_t rep = 0; rep < layer_reps; ++rep) {
        for (const auto& shape : decode_shapes) {
          sink += sim::run_decode_layer(simulator, model, shape[0], shape[1])
                      .latency;
          ++times.decode_calls;
        }
      }
    }
    {
      Span span(spans, prefill_id);
      for (std::int64_t rep = 0; rep < layer_reps; ++rep) {
        for (const auto& shape : prefill_shapes) {
          sink += sim::run_prefill_layer(simulator, model, shape[0], shape[1])
                      .latency;
          ++times.prefill_calls;
        }
      }
    }
  }

  // Llama-style projection GEMMs at decode, small-batch and prefill rows.
  const std::int64_t gemms_per_deployment = 9;
  const std::int64_t mxu_reps = std::max<std::int64_t>(
      1, kMxuCallsTarget /
             (static_cast<std::int64_t>(mxu_deployments.size()) *
              gemms_per_deployment));
  for (const auto& [chip_config, model] : mxu_deployments) {
    arch::TpuChip chip(chip_config);
    std::vector<systolic::GemmWorkload> gemms;
    for (std::int64_t m : {1, 32, 512}) {
      for (const auto& kn : {std::pair{model.d_model, model.d_model},
                             std::pair{model.d_model, model.d_ff},
                             std::pair{model.d_ff, model.d_model}}) {
        systolic::GemmWorkload gemm;
        gemm.m = m;
        gemm.k = kn.first;
        gemm.n = kn.second;
        gemm.dtype = model.dtype;
        gemms.push_back(gemm);
      }
    }
    const bool cim = chip_config.mxu_kind == arch::MxuKind::kCim;
    const systolic::MatrixUnit& mxu = chip.mxu();
    Span span(spans, cim ? cim_id : systolic_id);
    for (std::int64_t rep = 0; rep < mxu_reps; ++rep) {
      for (const systolic::GemmWorkload& gemm : gemms) {
        sink += mxu.evaluate(gemm).busy_cycles;
      }
    }
    (cim ? times.cim_calls : times.systolic_calls) +=
        mxu_reps * gemms_per_deployment;
  }
  g_sink = sink;
  return times;
}

double span_s(SpanRecorder& spans, const std::string& name) {
  return static_cast<double>(spans.totals(name).total_ns) * 1e-9;
}

/// Mean ns per call of `name`'s spans (0 without calls).
double per_call_ns(SpanRecorder& spans, const std::string& name,
                   std::int64_t calls) {
  return ratio(static_cast<double>(spans.totals(name).total_ns),
               static_cast<double>(calls));
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"request_gen.s", "s"},
      {"request_gen.requests_per_s", "1/s"},
      {"engine.construct_s", "s"},
      {"engine.inject_s", "s"},
      {"engine.drain_s", "s"},
      {"engine.finish_s", "s"},
      {"engine.steps", "count"},
      {"engine.ns_per_step", "ns"},
      {"engine.rss_bytes_per_request", "B"},
      {"scheduler.next_step_ns", "ns"},
      {"scheduler.mean_batch", "count"},
      {"scheduler.preemptions", "count"},
      {"scheduler.prefix_hit_rate", "ratio"},
      {"kv.blocks_allocated", "count"},
      {"kv.swap_bytes", "B"},
      {"step_cost.hits", "count"},
      {"step_cost.misses", "count"},
      {"step_cost.hit_ratio", "ratio"},
      {"step_cost.cost_step_ns", "ns"},
      {"step_cost.miss_us", "us"},
      {"step_cost.miss_share", "ratio"},
      {"sim.decode_layer_us", "us"},
      {"sim.prefill_layer_us", "us"},
      {"mxu.cim_eval_ns", "ns"},
      {"mxu.systolic_eval_ns", "ns"},
      {"cluster.s", "s"},
      {"cluster.ns_per_step", "ns"},
      {"cluster.overhead_ratio", "ratio"},
      {"cluster.point_share", "ratio"},
      {"sweep.threads", "count"},
      {"sweep.points", "count"},
      {"sweep.parallel_efficiency", "ratio"},
      {"sweep.longest_point_s", "s"},
      {"trace.overhead_s", "s"},
  };
  return metrics;
}

TracedPass run_traced_pass(const std::string& name, std::uint64_t seed,
                           int threads, int scale) {
  TracedPass pass;
  SpanRecorder& spans = pass.spans;
  std::map<std::string, double>& v = pass.values;

  // 1. Set-up, with generate_requests spanned.
  const std::unique_ptr<Workload> workload =
      build_workload(name, seed, scale, &spans);
  std::int64_t generated = 0;
  for (const auto& trace : workload->traces) {
    generated += static_cast<std::int64_t>(trace.size());
  }

  // 2. Traced serial engine phase.
  EnginePhase phase = run_engine_phase(*workload, spans);

  // 3. Untraced: serially, then at the workload's thread count.
  auto start = std::chrono::steady_clock::now();
  const std::vector<serving::ServingMetrics> serial = run_points(*workload, 1);
  const double serial_s = seconds_since(start);
  const int sweep_threads =
      std::min<int>(threads, static_cast<int>(workload->points.size()));
  std::vector<serving::ServingMetrics> parallel;
  double parallel_s = serial_s;
  if (sweep_threads > 1) {
    start = std::chrono::steady_clock::now();
    parallel = run_points(*workload, threads);
    parallel_s = seconds_since(start);
  }
  const std::vector<serving::ServingMetrics>& swept =
      sweep_threads > 1 ? parallel : serial;

  // A workload without cluster cells still times the cluster layer: every
  // point runs again as a 1-replica round-robin cluster, whose replica
  // must match the engine run bit for bit.
  const bool has_cluster_cells =
      std::any_of(workload->points.begin(), workload->points.end(),
                  [](const serving::SweepPoint& p) { return p.replicas > 0; });
  std::vector<serving::ServingMetrics> one_replica;
  if (!has_cluster_cells) {
    serving::SharedStepCostCache shared;
    for (const serving::SweepPoint& point : workload->points) {
      serving::ClusterMetrics cluster = run_cluster(point, 1, &shared, spans);
      phase.cluster_steps += cluster.replica_metrics.front().total_steps;
      one_replica.push_back(std::move(cluster.replica_metrics.front()));
    }
  }

  const std::uint64_t traced_digest = digest(phase.cells);
  if (traced_digest != digest(serial) || traced_digest != digest(swept)) {
    pass.error = "traced, serial and " + std::to_string(sweep_threads) +
                 "-thread runs disagree on simulated outputs";
  } else if (!has_cluster_cells && digest(one_replica) != traced_digest) {
    pass.error = "1-replica cluster runs disagree with the engine runs";
  } else {
    pass.error = check_conservation(*workload, phase.cells);
  }
  const SimSummary summary = summarize(*workload, phase.cells);
  pass.attempted = summary.requests;
  pass.failed = summary.requests - summary.completed;

  // 4. Scheduler + cost replay on every single-engine point.
  ReplayTotals replay;
  {
    serving::SharedStepCostCache shared;
    for (const serving::SweepPoint& point : workload->points) {
      if (point.replicas == 0) replay_point(point, &shared, spans, &replay);
    }
  }

  // 5. Transformer-layer and MXU models, called directly.
  const LayerTimes layer = time_layers(*workload, spans);

  // Counts from the engine's own metrics, pooled over cells.
  std::int64_t preemptions = 0, hits = 0, misses = 0;
  double swap_bytes = 0, prefix_hit = 0, prefix_lookup = 0;
  for (const serving::ServingMetrics& cell : phase.cells) {
    preemptions += cell.preemptions;
    hits += cell.cost_cache_hits;
    misses += cell.cost_cache_misses;
    swap_bytes += cell.counters.total_swap_bytes();
    prefix_hit += static_cast<double>(cell.counters.prefix_hit_tokens);
    prefix_lookup += static_cast<double>(cell.counters.prefix_lookup_tokens);
  }
  double point_wall_sum = 0, longest_point = 0;
  for (const serving::ServingMetrics& cell : swept) {
    point_wall_sum += cell.sim_wall_seconds;
    longest_point = std::max(longest_point, cell.sim_wall_seconds);
  }

  const double request_gen_s = span_s(spans, "request_gen");
  v["request_gen.s"] = request_gen_s;
  v["request_gen.requests_per_s"] =
      ratio(static_cast<double>(generated), request_gen_s);

  v["engine.construct_s"] = span_s(spans, "engine.construct");
  v["engine.inject_s"] = span_s(spans, "engine.inject");
  v["engine.drain_s"] = span_s(spans, "engine.drain");
  v["engine.finish_s"] = span_s(spans, "engine.finish");
  v["engine.steps"] = static_cast<double>(phase.engine_steps);
  const double engine_ns_per_step =
      per_call_ns(spans, "engine.drain", phase.engine_steps);
  v["engine.ns_per_step"] = engine_ns_per_step;
  v["engine.rss_bytes_per_request"] = ratio(
      phase.heap_growth, static_cast<double>(phase.engine_requests));

  v["scheduler.next_step_ns"] =
      per_call_ns(spans, "scheduler.next_step",
                  spans.totals("scheduler.next_step").count);
  v["scheduler.mean_batch"] = ratio(static_cast<double>(replay.batch_sum),
                                    static_cast<double>(replay.steps));
  v["scheduler.preemptions"] = static_cast<double>(preemptions);
  v["scheduler.prefix_hit_rate"] = ratio(prefix_hit, prefix_lookup);
  v["kv.blocks_allocated"] = static_cast<double>(phase.kv_blocks);
  v["kv.swap_bytes"] = swap_bytes;

  v["step_cost.hits"] = static_cast<double>(hits);
  v["step_cost.misses"] = static_cast<double>(misses);
  v["step_cost.hit_ratio"] =
      ratio(static_cast<double>(hits), static_cast<double>(hits + misses));
  v["step_cost.cost_step_ns"] =
      per_call_ns(spans, "step_cost.cost_step",
                  spans.totals("step_cost.cost_step").count);
  const double miss_us =
      ratio(replay.miss_ns, static_cast<double>(replay.misses)) * 1e-3;
  v["step_cost.miss_us"] = miss_us;
  // Host time the workload's own misses cost, at the replay's measured
  // cost per miss, as a share of the untraced serial run.
  v["step_cost.miss_share"] =
      ratio(miss_us * 1e-6 * static_cast<double>(misses), serial_s);

  v["sim.decode_layer_us"] =
      per_call_ns(spans, "sim.decode_layer", layer.decode_calls) * 1e-3;
  v["sim.prefill_layer_us"] =
      per_call_ns(spans, "sim.prefill_layer", layer.prefill_calls) * 1e-3;
  v["mxu.cim_eval_ns"] = per_call_ns(spans, "mxu.cim_eval", layer.cim_calls);
  v["mxu.systolic_eval_ns"] =
      per_call_ns(spans, "mxu.systolic_eval", layer.systolic_calls);

  const double cluster_s = span_s(spans, "cluster");
  const double cluster_ns_per_step =
      per_call_ns(spans, "cluster", phase.cluster_steps);
  v["cluster.s"] = cluster_s;
  v["cluster.ns_per_step"] = cluster_ns_per_step;
  v["cluster.overhead_ratio"] =
      ratio(cluster_ns_per_step, engine_ns_per_step);
  const double points_s = span_s(spans, "points");
  v["cluster.point_share"] = has_cluster_cells ? ratio(cluster_s, points_s) : 0;

  v["sweep.threads"] = sweep_threads;
  v["sweep.points"] = static_cast<double>(workload->points.size());
  v["sweep.parallel_efficiency"] =
      ratio(point_wall_sum, sweep_threads * parallel_s);
  v["sweep.longest_point_s"] = longest_point;

  v["trace.overhead_s"] = points_s - serial_s;
  return pass;
}

}  // namespace cimbench
