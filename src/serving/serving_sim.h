#pragma once
// Request-level serving simulation: replays a stochastic arrival trace
// through the continuous-batching scheduler, costing every engine step
// with the analytic simulator, and reports the distributional metrics a
// serving deployment is judged by — TTFT, TPOT, end-to-end latency
// percentiles, goodput, energy per token, and MXU utilization.
//
// Step costs are PER SEQUENCE: each participant's attention is charged at
// its own (bucketed) KV length via `cost_step`, with prefill-chunk and
// decode tokens costed separately.  Swap-to-host preemptions additionally
// charge the PCIe transfer of the victim's KV pages to the step that
// moved them.
//
// Deployments are a single chip or a `chips`-way pipeline over the ICI
// ring (parallel/multi_chip.h semantics): layers split evenly, the
// bottleneck stage sets the steady-state step interval, and tokens pay the
// pipeline traversal latency (stage count x stage time) on top of the
// step that emitted them.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "arch/tpu_config.h"
#include "serving/fault.h"
#include "serving/metrics.h"
#include "serving/obs_registry.h"
#include "serving/request_gen.h"
#include "serving/scheduler.h"
#include "serving/trace.h"

namespace cimtpu::serving {

/// A serving deployment under test.
struct ServingScenario {
  arch::TpuChipConfig chip_config;
  models::TransformerConfig model;
  int chips = 1;  ///< pipeline-parallel stages over the ICI ring
  SchedulerConfig scheduler;  ///< incl. chunked-prefill token budget

  /// Megatron-style tensor parallelism (parallel/multi_chip.h): the model
  /// is sharded `ways` across chips (heads and d_ff split), every layer
  /// pays two ring all-reduces of the step's activation rows, and the KV
  /// budget spans all shards' HBM headroom — the unlock for models larger
  /// than one chip's HBM.  1 (the default) is the single-chip /
  /// pipeline-parallel path, bit-identical to pre-TP builds.  Combining
  /// with pipeline stages (`chips` > 1) is not modeled.
  int tensor_parallel_ways = 1;

  EvictionPolicy eviction = EvictionPolicy::kPreemptNewest;
  Bytes kv_budget_override = 0;  ///< 0 -> KvCacheManager::hbm_kv_budget
                                 ///< (bottleneck-stage HBM headroom)

  /// kSwapToHost knobs: host pool size and the PCIe-class link KV pages
  /// cross in each direction (transfer time is charged to the step).
  Bytes host_pool_capacity = 1024 * GiB;
  BytesPerSecond host_link_bandwidth = 64 * GBps;

  /// Simulated-time horizon: 0 runs until every request drains (the
  /// default, unchanged behaviour); > 0 stops the engine at this simulated
  /// second and requests still in flight simply never complete.  Fairness
  /// studies need this — over a full drain every tenant finishes all of
  /// its work, so only a fixed OVERLOADED window makes an admission
  /// policy's share enforcement visible in per-tenant goodput.
  Seconds max_sim_seconds = 0;

  /// Observability (serving/trace.h): event tracing, trace-file output,
  /// and time-series sampling.  Default-off — zero hot-path allocation
  /// and bit-identical metrics either way.
  TraceConfig trace;

  /// Fault injection + recovery (serving/fault.h).  Default-off — the
  /// fault rng is never consulted and the run is bit-identical to a
  /// build without the subsystem.
  FaultConfig fault;

  void validate() const;
};

/// Aggregate result of one serving run.
///
/// Field lists: `for_each_field` below names every simulated field, with
/// its FleetRule and registry keys (FieldKeys); nested structs have their
/// own tables (serving/metrics.h, serving/fault.h).  Left out: the
/// host-time field `sim_wall_seconds`, which measures the machine rather
/// than the simulation, and `timeseries`, which holds samples only when
/// sampling is on.
struct ServingMetrics {
  int chips = 1;
  std::int64_t num_requests = 0;
  std::int64_t completed = 0;
  std::int64_t generated_tokens = 0;  ///< across completed requests

  std::int64_t total_steps = 0;
  std::int64_t prefill_steps = 0;
  std::int64_t decode_steps = 0;
  std::int64_t preemptions = 0;  ///< recompute + swap (see counters)
  ServingCounters counters;      ///< per-policy preemptions, swap bytes,
                                 ///< chunked-prefill steps, prefix-cache
                                 ///< hits/shared blocks/CoW copies

  /// Paged-KV gauges (schema-v5 "prefix_cache" block): the fraction of
  /// eligible prefix tokens served from cached blocks, and the mean
  /// per-step last-block waste of the block allocator (0 at block size 1).
  double prefix_hit_rate = 0;
  double kv_internal_fragmentation = 0;

  Seconds makespan = 0;        ///< last token emission time
  Seconds sim_end_seconds = 0; ///< simulated clock when the engine stopped:
                               ///< never past max_sim_seconds when a horizon
                               ///< is set (>= makespan either way)
  LatencySummary ttft;         ///< time to first token
  LatencySummary tpot;         ///< time per output token (steady decode)
  LatencySummary e2e;          ///< request completion latency

  double goodput_tokens_per_second = 0;

  /// SLO attainment (schema-v7 "slo_frontier" block): a request MEETS its
  /// SLO when it completed inside the window and every deadline it
  /// carries holds — TTFT (first token within Request::ttft_deadline of
  /// arrival) and TPOT (steady decode within Request::tpot_deadline per
  /// token).  Deadline-free completed requests count as meeting; shed or
  /// never-completed requests count as missing.  `slo_attainment` is
  /// met / arrived (1.0 when nothing arrived);
  /// `slo_goodput_tokens_per_second` counts ONLY deadline-meeting
  /// requests' tokens over the makespan — the DistServe-style goodput
  /// that a shedding policy trades raw throughput for.
  std::int64_t slo_met = 0;
  double slo_attainment = 1.0;
  double slo_goodput_tokens_per_second = 0;

  /// Resilience metrics (schema-v8 "resilience" block).  `availability`
  /// is completed / arrived — the fraction of requests that arrived
  /// inside the simulated window and actually finished (faults, sheds,
  /// and horizon cuts all lower it; 1.0 when nothing arrived).
  /// `mttr_seconds` is the mean repair interval over repaired faults:
  /// host restores repair in the PCIe re-fetch time, recompute victims
  /// when the re-admitted request finally completes (0 with no repairs).
  /// `fault` counts events, backoff re-admissions (`fault.retries`) and
  /// computed tokens thrown away by fault evictions
  /// (`fault.wasted_recompute_tokens`).  Both scalars are 1.0 / 0 and
  /// `fault` all-zero when the subsystem is off.
  double availability = 1.0;
  Seconds mttr_seconds = 0;
  FaultStats fault;  ///< per-type event + recovery counts ("fault.*")

  /// Per-tenant QoS breakdown (schema-v4): one row per tenant id with at
  /// least one request arriving inside the simulated window, ascending,
  /// plus Jain's fairness index over the tenants' weight-normalized
  /// goodput (1.0 when fewer than two such tenants).
  std::vector<TenantMetrics> tenants;
  double jain_fairness = 1.0;

  Joules mxu_energy = 0;
  Joules total_energy = 0;
  Joules energy_per_token = 0;
  /// MXU busy time / (makespan * chips).  "Busy" is the `compute_time` of
  /// every MXU op the steps ran (sim::CostTotals::mxu_busy_time), not
  /// useful MACs: on the systolic baseline each weight tile's serialized
  /// fill counts as busy cycles (SystolicMxu::evaluate_weight_stationary),
  /// and at decode's small `m` the fill dominates.  So the baseline reads
  /// about 0.69 and the CIM chip about 0.08 at the same load (llama2-7b
  /// INT4, 1 req/s); the gap is fill time, not a CIM chip left idle.
  double mxu_utilization = 0;

  std::size_t cost_cache_entries = 0;
  std::int64_t cost_cache_hits = 0;
  std::int64_t cost_cache_misses = 0;
  double cost_cache_occupancy = 0;  ///< flat-table load factor at run end

  /// End-of-run observability registry (schema-v6 "registry" block):
  /// every subsystem's published counters/gauges/histograms — scheduler
  /// counters, cost cache, KV manager, admission policy, step-latency and
  /// batch-size histograms.  Deterministic (fed only by simulated state).
  MetricsRegistry registry;

  /// Time-series samples (empty unless ServingScenario::trace
  /// .sample_interval > 0).  Deterministic.
  std::vector<TimeSample> timeseries;

  /// Host wall-clock seconds this run spent, read by cimbench's traced
  /// sweep rows (parallel efficiency, longest point).  The ONLY
  /// non-deterministic field — equivalence checks (golden pins,
  /// parallel-vs-serial sweeps) must ignore it, and BENCH_serving.json
  /// leaves it out.
  Seconds sim_wall_seconds = 0;

  /// `visit(name, &ServingMetrics::member, FleetRule, FieldKeys)` per
  /// simulated field.
  template <typename Visit>
  static void for_each_field(Visit&& visit) {
    using M = ServingMetrics;
    using F = FleetRule;
    using K = FieldKeys;  // {engine, cluster, replica suffix, gated}
    visit("chips", &M::chips, F::kSum,
          K{nullptr, "cluster.total_chips", "chips"});
    visit("num_requests", &M::num_requests, F::kRequests,
          K{nullptr, "cluster.num_requests"});
    visit("completed", &M::completed, F::kRequests,
          K{"engine.completed", "cluster.completed", "completed"});
    visit("generated_tokens", &M::generated_tokens, F::kRequests,
          K{"engine.generated_tokens", "cluster.generated_tokens",
            "generated_tokens"});
    visit("total_steps", &M::total_steps, F::kSum, K{"engine.total_steps"});
    visit("prefill_steps", &M::prefill_steps, F::kSum,
          K{"engine.prefill_steps"});
    visit("decode_steps", &M::decode_steps, F::kSum, K{"engine.decode_steps"});
    visit("preemptions", &M::preemptions, F::kDerived, K{});
    visit("counters", &M::counters, F::kSum, K{});
    visit("prefix_hit_rate", &M::prefix_hit_rate, F::kDerived,
          K{"scheduler.prefix_hit_rate", "cluster.prefix_hit_rate"});
    visit("kv_internal_fragmentation", &M::kv_internal_fragmentation,
          F::kNone, K{});
    visit("makespan", &M::makespan, F::kRequests,
          K{"engine.makespan_s", "cluster.makespan_s"});
    visit("sim_end_seconds", &M::sim_end_seconds, F::kMax,
          K{"engine.sim_end_s"});
    visit("ttft", &M::ttft, F::kRequests, K{});
    visit("tpot", &M::tpot, F::kRequests, K{});
    visit("e2e", &M::e2e, F::kRequests, K{});
    visit("goodput_tokens_per_second", &M::goodput_tokens_per_second,
          F::kRequests, K{nullptr, "cluster.goodput_tokens_per_s"});
    visit("slo_met", &M::slo_met, F::kRequests, K{});
    visit("slo_attainment", &M::slo_attainment, F::kRequests,
          K{"engine.slo_attainment", "cluster.slo_attainment"});
    visit("slo_goodput_tokens_per_second",
          &M::slo_goodput_tokens_per_second, F::kRequests,
          K{"engine.slo_goodput_tokens_per_s"});
    visit("availability", &M::availability, F::kRequests,
          K{"engine.availability", "cluster.availability"});
    visit("mttr_seconds", &M::mttr_seconds, F::kNone,
          K{"engine.mttr_s", nullptr, nullptr, /*gated=*/true});
    visit("fault", &M::fault, F::kSum,
          K{nullptr, nullptr, nullptr, /*gated=*/true});
    visit("tenants", &M::tenants, F::kRequests, K{});
    visit("jain_fairness", &M::jain_fairness, F::kRequests, K{});
    visit("mxu_energy", &M::mxu_energy, F::kSum, K{});
    visit("total_energy", &M::total_energy, F::kSum, K{});
    visit("energy_per_token", &M::energy_per_token, F::kDerived, K{});
    visit("mxu_utilization", &M::mxu_utilization, F::kDerived,
          K{nullptr, nullptr, "utilization"});
    visit("cost_cache_entries", &M::cost_cache_entries, F::kSum,
          K{"cost_cache.entries"});
    visit("cost_cache_hits", &M::cost_cache_hits, F::kSum,
          K{"cost_cache.hits"});
    visit("cost_cache_misses", &M::cost_cache_misses, F::kSum,
          K{"cost_cache.misses"});
    visit("cost_cache_occupancy", &M::cost_cache_occupancy, F::kNone,
          K{"cost_cache.occupancy"});
    visit("registry", &M::registry, F::kNone, K{});
  }
};

/// Sets the FleetRule::kDerived fields from the rows they combine
/// (mxu_utilization from `mxu_busy_chip_seconds`), for a run and a fleet.
void derive_metrics(Seconds mxu_busy_chip_seconds, ServingMetrics* metrics);

/// Publishes every field of `table` (ServingMetrics, ClusterMetrics)
/// keyed in `scope` under `prefix` + key, gated rows only if `gate_open`.
/// Nested keyed tables publish their own keys in the engine scope; the
/// replica list publishes its length and each replica's replica keys.
template <typename S>
void publish_keys(const S& table, const char* FieldKeys::*scope,
                  bool gate_open, const std::string& prefix,
                  MetricsRegistry* registry) {
  S::for_each_field([&](const char*, auto member, const auto&... row) {
    const FieldKeys& keys = std::get<sizeof...(row) - 1>(std::tie(row...));
    const auto& value = table.*member;
    using T = std::decay_t<decltype(value)>;
    const char* key = keys.*scope;
    if (keys.gated && !gate_open) return;
    if constexpr (std::is_same_v<T, ServingCounters> ||
                  std::is_same_v<T, FaultStats>) {
      if (scope != &FieldKeys::engine) return;
      T::for_each_field([&](const char*, auto field, auto... names) {
        (registry->publish(names, value.*field), ...);
      });
    } else if constexpr (std::is_same_v<T, ServingMetrics>) {
      publish_keys(value, scope, gate_open, prefix, registry);
    } else if constexpr (std::is_same_v<T, std::vector<ServingMetrics>>) {
      registry->publish(prefix + key, value.size());
      for (std::size_t i = 0; i < value.size(); ++i) {
        publish_keys(value[i], &FieldKeys::replica, gate_open,
                     replica_key_prefix(i), registry);
      }
    } else if constexpr (std::is_arithmetic_v<T>) {
      if (key != nullptr) registry->publish(prefix + key, value);
    }
  });
}

/// One request that arrived inside the simulated window, as the request
/// rollup reads it.
struct RequestRow {
  const Request* request = nullptr;
  Seconds first_token = -1;  ///< < 0: never emitted
  Seconds completion = -1;   ///< < 0: shed or cut by the horizon
};

/// A re-readable view of a run's arrived rows: calls its argument once per
/// row, in the same order on every call.
using ForEachRequestRow =
    std::function<void(const std::function<void(const RequestRow&)>&)>;

/// The request-level half of a run's rollup, shared by ServingEngine::
/// finish and the cluster's stitched fleet view (serving/cluster.h), so
/// every request metric has one implementation.  Writes the
/// FleetRule::kRequests fields but num_requests, and leaves every other
/// field alone; tenant weights come from `admission` (AdmissionConfig::
/// tenant_weight, the lookup WFQ admission uses).
///
/// It reads the rows three times and holds one latency sample at a time,
/// in one buffer of `max_rows` (at least the row count) doubles: a first
/// pass takes the counters, the makespan, each tenant's sample sizes and
/// the TPOT sample; then the buffer holds TTFT, then e2e.  Each sample is
/// sorted in place and summarized before the next is laid out.  TTFT and
/// e2e sit in per-tenant segments, summarized one by one before the whole
/// buffer is re-sorted for the run-wide summary.  Peak memory is the
/// buffer plus the sort's scratch, 16 B per row.
void rollup_requests(std::size_t max_rows,
                     const ForEachRequestRow& for_each_row,
                     const AdmissionConfig& admission,
                     ServingMetrics* metrics);

/// Incremental single-replica serving engine: the exact run_serving state
/// machine, re-cut so a cluster driver (serving/cluster.h) can co-simulate
/// several replicas on one discrete-event clock.  Lifecycle:
///
///   const std::vector<Request> requests = generate_requests(stream);
///   ServingEngine engine(scenario);
///   engine.inject_all(requests);  // or inject(requests[i]) one at a time,
///                                 // in nondecreasing arrival order
///   engine.pump(until);       // simulate up to `until` simulated seconds
///   engine.drain();           // run until all injected work completes
///   ServingMetrics m = engine.finish();  // end-of-run rollups (once)
///
/// The engine reads injected requests in place: it keeps a reference, not
/// a copy, so `requests` above must outlive the engine's last call.  Only
/// the scheduler (admission queues, resident pool) and the fault-retry
/// queue copy a request, and only while it is in flight.
///
/// inject -> drain -> finish over a whole trace is bit-identical to
/// run_serving on that trace: pump's stop point only truncates the loop
/// BETWEEN iterations, never inside one, and an idle engine advances its
/// clock exactly to the next arrival / retry / horizon event as before.
class ServingEngine {
 public:
  explicit ServingEngine(const ServingScenario& scenario,
                         SharedStepCostCache* shared_costs = nullptr,
                         ServingTrace* trace_out = nullptr);
  ~ServingEngine();
  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// One injected request's fate, in injection order; the request itself
  /// is the caller's (inject keeps a reference).  A cluster keeps one per
  /// original request as its stitched cross-replica row.
  struct RequestOutcome {
    Seconds first_token = -1;  ///< < 0: never emitted
    Seconds completion = -1;   ///< < 0: shed or cut by the horizon
    bool arrived = false;      ///< fed to the scheduler inside the window
    /// Dropped by admission control or a fault; read after finish(), also
    /// cut by the horizon (arrived but never completed), so an arrived
    /// request then either completed or was shed.
    bool shed = false;
  };

  /// Adds a request to the engine's trace.  Requests must be injected in
  /// nondecreasing arrival-time order (checked when fed); the engine pulls
  /// them in as its clock reaches their arrival times.  Ids must lie in
  /// [0, 2^31 - 1] and be unique within one engine (a ConfigError
  /// otherwise): the engine's per-request state is indexed by id.  Every
  /// inject flavour fails (InternalError) after finish().
  ///
  /// The engine keeps a reference to `request`, not a copy: the request
  /// must stay alive and unchanged until finish() returns, and through any
  /// later outcomes() call.  A rejected request is not kept.  Temporaries
  /// do not compile (the rvalue overloads are deleted).
  void inject(const Request& request);
  void inject(const Request&&) = delete;

  /// Hands over a whole arrival-sorted trace: inject() on each request in
  /// order, with the per-request state sized once for the trace instead of
  /// grown as requests arrive.  The same lifetime rule holds for every
  /// element of `requests`.
  void inject_all(const std::vector<Request>& requests);
  void inject_all(const std::vector<Request>&&) = delete;

  /// Disaggregated serving: injects a request whose PREFILL already ran on
  /// another replica — its KV blocks arrive pre-computed (the cluster
  /// driver costs the transfer), so the scheduler admits it straight into
  /// decode with one token already emitted elsewhere.  Requires
  /// output_len >= 2 (an output_len == 1 request has no decode work).
  /// Referenced in place, as inject() does.
  void inject_prefilled(const Request& request);
  void inject_prefilled(const Request&&) = delete;

  /// Runs engine iterations until the simulated clock reaches `until`, all
  /// injected work drains, or the horizon cuts the run.  Returns true when
  /// work remains (stopped at `until`), false when the engine has nothing
  /// left to do (more injections may revive it).
  ///
  /// Quiet decode runs (ContinuousBatchScheduler::quiet_decode_steps) are
  /// committed in bulk, at any KV block size: after each single step the
  /// engine advances the scheduler over the quiet runs ahead, one after
  /// another — a run that ends on a bucket crossing hands its regrouped
  /// decoders to the next, and a run may stand over queued or swapped
  /// work that cannot enter while it lasts (a full batch, a failed
  /// swap-in watermark, a memoized head-of-line block; never under a
  /// shedding policy) — and replays only the per-step clock, busy-time,
  /// energy, histogram, and fragmentation sums, each adding the same value
  /// once per step in order (the fragmentation readings, which move
  /// within a run at block sizes > 1, come from
  /// KvCacheManager::add_fragmentation_over).  A run whose grouping the cost memo does not hold is costed
  /// with the same counted lookups its first single step would make.  The
  /// runs end at the next arrival, at `until`, or at the horizon — the
  /// boundary where single steps would stop — so metrics, cost-cache
  /// counts, stop points, and cluster co-simulation are bit-identical to
  /// stepping one at a time.  Tracing, time-series sampling, and fault
  /// injection need per-step events and always step one at a time.
  bool pump(Seconds until);

  /// Runs until every injected request completes (or the horizon cuts).
  void drain();

  /// End-of-run rollups: distributional metrics, registry publishing,
  /// trace-file output.  Call exactly once, after the last pump/drain; the
  /// engine is unusable afterwards.
  ServingMetrics finish();

  /// True while injected arrivals, resident work, or fault retries remain.
  bool work_pending() const;

  /// Load gauge for routing: prompt + output tokens of every injected
  /// request not yet completed or shed (queued + resident work).
  std::int64_t outstanding_tokens() const;

  /// Completion log for disaggregated prefill replicas: when enabled,
  /// every completion is appended as (injection index, completion time),
  /// the index counting inject / inject_prefilled calls from 0 (the order
  /// outcomes() reports).  take_completions() drains the log in
  /// completion order.
  void set_completion_log(bool enabled);
  std::vector<std::pair<std::size_t, Seconds>> take_completions();

  /// Per-request outcomes in injection order (see RequestOutcome); valid
  /// before and after finish().
  std::vector<RequestOutcome> outcomes() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Replays `requests` (must be sorted by arrival time) through the
/// deployment.  `shared_costs` (optional) lets sweeps share computed step
/// costs across runs with the same (chip, model, bucket) signature; it
/// never changes the simulated metrics, only wall-clock.  `trace_out`
/// (optional) receives the run's event trace when
/// `scenario.trace.enabled` — pass one to inspect events in memory;
/// without it the trace lives (and, with a configured dir, is written)
/// internally.
ServingMetrics run_serving(const ServingScenario& scenario,
                           const std::vector<Request>& requests,
                           SharedStepCostCache* shared_costs = nullptr,
                           ServingTrace* trace_out = nullptr);

}  // namespace cimtpu::serving
