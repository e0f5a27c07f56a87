#include "serving/serving_sim.h"

#include "serving/arena.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <numeric>

#include "arch/chip.h"
#include "common/math_util.h"
#include "common/status.h"
#include "parallel/multi_chip.h"
#include "sim/simulator.h"

namespace cimtpu::serving {

void ServingScenario::validate() const {
  CIMTPU_CONFIG_CHECK(chips >= 1, "serving needs >= 1 chip");
  CIMTPU_CONFIG_CHECK(model.num_layers >= chips,
                      "fewer layers than pipeline stages");
  CIMTPU_CONFIG_CHECK(tensor_parallel_ways >= 1,
                      "tensor_parallel_ways must be >= 1, got "
                          << tensor_parallel_ways);
  CIMTPU_CONFIG_CHECK(tensor_parallel_ways == 1 || chips == 1,
                      "tensor parallelism (" << tensor_parallel_ways
                                             << "-way) cannot combine with "
                                                "pipeline stages (chips="
                                             << chips << ")");
  CIMTPU_CONFIG_CHECK(host_link_bandwidth > 0,
                      "host link bandwidth must be positive");
  CIMTPU_CONFIG_CHECK(host_pool_capacity >= 0,
                      "host pool capacity must be >= 0");
  CIMTPU_CONFIG_CHECK(max_sim_seconds >= 0,
                      "max_sim_seconds must be >= 0 (0 = run to drain)");
  CIMTPU_CONFIG_CHECK(kv_budget_override >= 0,
                      "kv_budget_override must be >= 0 (0 = derive from HBM "
                      "headroom), got " << format_bytes(kv_budget_override));
  scheduler.validate();
  trace.validate();
  fault.validate();
}

namespace {

/// Per-request bookkeeping across the run, parallel to the engine's
/// injected requests (arrival, lengths and tenant live in the Request).
struct RequestTrace {
  Seconds first_token = -1;  ///< < 0 until the first token is emitted
  Seconds completion = -1;
  Seconds last_fault = -1;  ///< open repair interval: a fault struck and
                            ///< the request has not recovered yet
  int retry_attempts = 0;   ///< fault re-admissions consumed (vs the budget)
  bool shed = false;  ///< dropped by admission control (never completes)
  bool prefilled = false;  ///< injected by inject_prefilled (decode only)
};

/// Largest request id an engine accepts.  Ids index the engine's int32
/// slot table; unique ids in [0, kMaxRequestId] also keep every slot
/// index within int32.
constexpr std::int64_t kMaxRequestId =
    std::numeric_limits<std::int32_t>::max();

std::int64_t total_tokens(const Request& request) {
  return request.prompt_len + request.output_len;
}

/// A fault-evicted request waiting out its exponential backoff before
/// re-entering admission.
struct PendingRetry {
  Request request;
  Seconds ready_time = 0;
  int attempt = 0;  ///< 1-based re-admission attempt this entry represents
  bool emitted_first_token = false;
};

/// Per-tenant accumulator for the schema-v4 breakdown.
struct TenantAccum {
  std::int64_t num_requests = 0;
  std::int64_t completed = 0;
  std::int64_t generated_tokens = 0;
  std::vector<double> ttft;
  std::vector<double> e2e;
};

/// The model whose shapes the cost cache simulates: the TP shard when
/// tensor parallelism is on (its "-tpN" name keys a distinct shared-cache
/// signature automatically), the full model otherwise.
models::TransformerConfig costed_model_for(const ServingScenario& scenario) {
  return scenario.tensor_parallel_ways > 1
             ? parallel::shard_tensor_parallel(scenario.model,
                                               scenario.tensor_parallel_ways)
             : scenario.model;
}

SharedStepCostCache::Store* shared_store_for(
    const ServingScenario& scenario, const models::TransformerConfig& costed,
    SharedStepCostCache* shared_costs) {
  return shared_costs == nullptr
             ? nullptr
             : shared_costs->store(cost_cache_signature(
                   scenario.chip_config, costed,
                   scenario.scheduler.seqlen_bucket));
}

Bytes resolve_kv_budget(const ServingScenario& scenario,
                        const arch::TpuChip& chip,
                        const models::TransformerConfig& costed) {
  if (scenario.kv_budget_override > 0) return scenario.kv_budget_override;
  if (scenario.tensor_parallel_ways > 1) {
    // Each shard holds 1/ways of the weights and 1/ways of every token's
    // KV (heads sharded), so the cluster-wide budget is ways times one
    // shard's HBM headroom — the whole point of TP serving: models whose
    // FULL weights exceed one chip's HBM still leave KV room.
    return static_cast<double>(scenario.tensor_parallel_ways) *
           KvCacheManager::hbm_kv_budget(
               costed, chip.memory().spec().hbm.capacity, /*chips=*/1);
  }
  return KvCacheManager::hbm_kv_budget(
      scenario.model, chip.memory().spec().hbm.capacity, scenario.chips);
}

SchedulerConfig effective_scheduler_config(const ServingScenario& scenario) {
  // Degraded-mode EDF slack rides the fault config; inject it into the
  // admission config before the policy is constructed.  Faults off leaves
  // the scheduler config byte-identical to the scenario's.
  SchedulerConfig config = scenario.scheduler;
  if (scenario.fault.enabled &&
      scenario.fault.degraded_extra_shed_slack_s > 0) {
    config.admission.edf_degraded_extra_slack_s =
        scenario.fault.degraded_extra_shed_slack_s;
  }
  return config;
}

}  // namespace

struct ServingEngine::Impl {
  ServingScenario scenario;
  std::chrono::steady_clock::time_point wall_start;
  arch::TpuChip chip;
  sim::Simulator simulator;
  models::TransformerConfig costed_model;
  StepCostCache costs;
  KvCacheManager kv_cache;
  ContinuousBatchScheduler scheduler;

  // Observability: the trace sink attaches only when event tracing or
  // time-series sampling is on — otherwise the scheduler's trace pointer
  // stays null and the loop below skips every trace branch (the
  // zero-allocation-when-disabled contract).  `tracing`/`sampling` are
  // hoisted so the hot loop branches on locals, never on config fields.
  ServingTrace local_trace;
  ServingTrace* trace;
  TimeSeriesSampler sampler;
  bool tracing;
  bool sampling;

  std::int64_t layers;
  std::int64_t stage_layers;
  int boundaries;
  double activation_elem_bytes;
  int tp_ways;
  double tp_scale;  ///< chip count each layer's work/energy replicates over

  // Dense per-request state: request i (injection order) has arrived iff
  // i < next_arrival.  Scheduler-reported ids resolve through `slot_of`.
  std::vector<Request> requests;  ///< injected, arrival-sorted
  std::vector<RequestTrace> traces;  ///< parallel to `requests`
  std::vector<std::int32_t> slot_of;  ///< request id -> index; -1: none

  ServingMetrics metrics;
  FixedBucketHistogram* step_latency_histogram;
  FixedBucketHistogram* step_batch_histogram;

  Seconds now = 0;
  Seconds busy_time = 0;  ///< MXU busy time summed over all stages
  double fragmentation_sum = 0;  ///< per-step internal-fragmentation samples
  std::size_t next_arrival = 0;
  bool horizon_hit = false;
  bool finished = false;

  std::int64_t outstanding_tokens = 0;
  bool log_completions = false;
  std::vector<std::pair<std::size_t, Seconds>> completed_log;

  // --- Fault injection state (serving/fault.h) ----------------------------
  // All of it is consulted only behind `faults_on`; the fault rngs are
  // dedicated streams, so the off path is bit-identical to a build without
  // the subsystem.
  bool faults_on;
  FaultProcess fault_process;
  DegradationController degrade;
  FaultStats fault_stats;
  std::deque<PendingRetry> retry_queue;
  std::vector<double> repair_times;  ///< MTTR samples (seconds)
  Seconds stall_until = -1;          ///< active stall window end
  std::int64_t fault_sheds = 0;
  int degraded_max_batch;

  StepArena arena;         // per-run step scratch (see serving/arena.h)
  StepRecord& step;        // = arena.record(); reused across all steps —
                           // warm()ed to steady-state capacity, so the
                           // serving loop allocates nothing per step

  Impl(const ServingScenario& scenario_in, SharedStepCostCache* shared_costs,
       ServingTrace* trace_out)
      : scenario(scenario_in),
        wall_start(std::chrono::steady_clock::now()),
        chip(scenario.chip_config),
        simulator(chip),
        costed_model(costed_model_for(scenario)),
        costs(simulator, costed_model, scenario.scheduler.seqlen_bucket,
              shared_store_for(scenario, costed_model, shared_costs)),
        kv_cache(resolve_kv_budget(scenario, chip, costed_model),
                 KvCacheManager::token_bytes(scenario.model),
                 scenario.eviction, scenario.host_pool_capacity,
                 scenario.scheduler.kv_block_tokens,
                 scenario.scheduler.enable_prefix_cache),
        scheduler(effective_scheduler_config(scenario), &kv_cache),
        trace(trace_out != nullptr ? trace_out : &local_trace),
        sampler(scenario.trace.sample_interval),
        tracing(scenario.trace.enabled),
        sampling(sampler.enabled()),
        layers(scenario.model.num_layers),
        stage_layers(ceil_div<std::int64_t>(layers, scenario.chips)),
        boundaries(scenario.chips - 1),
        activation_elem_bytes(ir::dtype_bytes(scenario.model.dtype) *
                              static_cast<double>(scenario.model.d_model)),
        tp_ways(scenario.tensor_parallel_ways),
        tp_scale(static_cast<double>(scenario.tensor_parallel_ways)),
        faults_on(scenario.fault.enabled),
        fault_process(scenario.fault),
        degrade(scenario.fault),
        degraded_max_batch(std::max(
            1,
            static_cast<int>(static_cast<double>(scenario.scheduler.max_batch) *
                             scenario.fault.degraded_max_batch_fraction))),
        step(arena.record()) {
    arena.warm(scenario.scheduler.max_batch,
               scenario.scheduler.max_prefill_batch);
    *trace = ServingTrace(scenario.trace);
    if (tracing || sampling) scheduler.set_trace_sink(trace);
    metrics.chips = scenario.chips * tp_ways;

    // Registry instruments resolved ONCE (map references are stable), so
    // per-step observation is an increment — no name lookups in the loop.
    // Always on: they depend only on the deterministic step sequence, so
    // metrics stay bit-identical with tracing on or off.
    step_latency_histogram = &metrics.registry.histogram(
        "engine.step_latency_s", exponential_bounds(1e-4, 2.0, 20));
    step_batch_histogram = &metrics.registry.histogram(
        "engine.step_batch", exponential_bounds(1, 2.0, 10));
  }

  void inject(const Request& request, bool prefilled) {
    CIMTPU_CHECK_MSG(!finished, "ServingEngine::inject after finish");
    CIMTPU_CONFIG_CHECK(request.id >= 0,
                        "inject: request id " << request.id
                                              << " is negative");
    CIMTPU_CONFIG_CHECK(request.id <= kMaxRequestId,
                        "inject: request id " << request.id
                                              << " exceeds the maximum "
                                              << kMaxRequestId);
    const auto id = static_cast<std::size_t>(request.id);
    if (id >= slot_of.size()) {
      // Geometric growth: dense ids resize O(log n) times, not per inject.
      slot_of.resize(std::max(id + 1, 2 * slot_of.size()), -1);
    }
    CIMTPU_CONFIG_CHECK(slot_of[id] < 0,
                        "inject: duplicate request id "
                            << request.id << " (already injected into this "
                                             "engine)");
    slot_of[id] = static_cast<std::int32_t>(requests.size());
    requests.push_back(request);
    traces.emplace_back().prefilled = prefilled;
    outstanding_tokens += total_tokens(request);
  }

  /// Index of the injected request with scheduler-reported `id`.
  std::size_t slot(std::int64_t id) const {
    return static_cast<std::size_t>(slot_of[static_cast<std::size_t>(id)]);
  }

  void feed_arrivals(Seconds up_to) {
    while (next_arrival < requests.size() &&
           requests[next_arrival].arrival_time <= up_to) {
      const Request& request = requests[next_arrival];
      CIMTPU_CONFIG_CHECK(
          next_arrival == 0 ||
              requests[next_arrival - 1].arrival_time <= request.arrival_time,
          "request trace must be sorted by arrival time");
      if (tracing) trace->on_arrive(request);
      if (traces[next_arrival].prefilled) {
        scheduler.enqueue_prefilled(request);
      } else {
        scheduler.enqueue(request);
      }
      ++next_arrival;
    }
  }

  // Removes a fault-struck request from the engine and either schedules a
  // backoff re-admission (recovery on, budget left) or sheds it with
  // cause "fault".  Opens the request's repair interval for MTTR.
  void fault_evict(std::int64_t request_id, Seconds fault_time) {
    Request request;
    ContinuousBatchScheduler::ResidentInfo progress;
    const bool removed =
        scheduler.remove_for_fault(request_id, &request, &progress);
    CIMTPU_CHECK(removed);
    fault_stats.wasted_recompute_tokens +=
        (progress.prefilled - progress.prefix_skipped) + progress.generated;
    const std::size_t index = slot(request_id);
    RequestTrace& request_trace = traces[index];
    request_trace.last_fault = fault_time;
    if (scenario.fault.recovery_enabled &&
        request_trace.retry_attempts < scenario.fault.retry_budget) {
      request_trace.retry_attempts += 1;
      const Seconds backoff = std::min(
          scenario.fault.retry_backoff_base_s *
              std::pow(2.0,
                       static_cast<double>(request_trace.retry_attempts - 1)),
          scenario.fault.retry_backoff_max_s);
      fault_stats.retries += 1;
      retry_queue.push_back(PendingRetry{request, fault_time + backoff,
                                         request_trace.retry_attempts,
                                         request_trace.first_token >= 0});
    } else {
      request_trace.shed = true;
      request_trace.last_fault = -1;  // dropped, never repaired: not in MTTR
      fault_stats.dropped += 1;
      fault_sheds += 1;
      outstanding_tokens -= total_tokens(requests[index]);
      if (tracing) trace->on_shed_fault(request_id, fault_time);
    }
  }

  void poll_faults() {
    // Deliver every fault event due by the current clock, in time order
    // (events landing mid-step surface here, stamped with their own event
    // time).
    FaultEvent event;
    while (fault_process.poll(now, &event)) {
      switch (event.type) {
        case FaultType::kStall: {
          stall_until = std::max(stall_until,
                                 event.time + scenario.fault.stall_duration_s);
          fault_stats.stalls += 1;
          degrade.on_fault(event.time);
          if (tracing) {
            trace->on_fault(-1, static_cast<std::int64_t>(FaultType::kStall),
                            event.time, 0, scenario.fault.stall_duration_s);
          }
          break;
        }
        case FaultType::kKvLoss: {
          const std::int64_t resident =
              static_cast<std::int64_t>(scheduler.running_count());
          if (resident == 0) break;  // struck an empty device: no-op
          fault_stats.kv_losses += 1;
          degrade.on_fault(event.time);
          const auto info = scheduler.resident_info(static_cast<std::size_t>(
              fault_process.pick_victim(resident)));
          const std::int64_t computed =
              (info.prefilled - info.prefix_skipped) + info.generated;
          if (tracing) {
            trace->on_fault(info.request_id,
                            static_cast<std::int64_t>(FaultType::kKvLoss),
                            event.time, computed, 0);
          }
          if (scenario.fault.recovery_enabled &&
              scenario.fault.kv_restore ==
                  FaultConfig::KvRestoreMode::kHostRestore) {
            Bytes bytes = 0;
            if (scheduler.restore_resident_from_host(info.request_id,
                                                     &bytes)) {
              // In-place repair: the engine pays the PCIe re-fetch before
              // the next step runs.
              const Seconds restore_time =
                  bytes / scenario.host_link_bandwidth;
              now += restore_time;
              fault_stats.host_restores += 1;
              fault_stats.host_restore_bytes += bytes;
              repair_times.push_back(restore_time);
              if (tracing) {
                trace->on_recover(info.request_id, /*mechanism=*/1,
                                  event.time, bytes, 0);
              }
              break;
            }
          }
          fault_evict(info.request_id, event.time);
          break;
        }
        case FaultType::kDeviceFailure: {
          fault_stats.device_failures += 1;
          degrade.on_fault(event.time);
          // Every resident loses its device KV; swapped-out sequences
          // survive in the host pool.  Snapshot ids first — eviction
          // mutates the resident order.
          std::vector<std::int64_t> victims;
          std::int64_t lost_tokens = 0;
          victims.reserve(scheduler.running_count());
          for (std::size_t i = 0; i < scheduler.running_count(); ++i) {
            const auto info = scheduler.resident_info(i);
            victims.push_back(info.request_id);
            lost_tokens +=
                (info.prefilled - info.prefix_skipped) + info.generated;
          }
          if (tracing) {
            trace->on_fault(
                -1, static_cast<std::int64_t>(FaultType::kDeviceFailure),
                event.time, lost_tokens, scenario.fault.device_restart_s);
          }
          for (std::int64_t id : victims) fault_evict(id, event.time);
          kv_cache.drop_cached_blocks();  // prefix cache does not survive
          // Downtime: the engine is back at the end of the restart epoch
          // (clamped to the horizon like the idle-advance below).
          Seconds resume = event.time + scenario.fault.device_restart_s;
          if (scenario.max_sim_seconds > 0) {
            resume = std::min(resume, scenario.max_sim_seconds);
          }
          now = std::max(now, resume);
          break;
        }
      }
    }
    if (degrade.enabled() && degrade.update(now)) {
      const bool entering = degrade.degraded();
      scheduler.set_degraded(entering, degraded_max_batch);
      kv_cache.set_prefix_admission_paused(
          entering && scenario.fault.degrade_pause_prefix_cache);
      if (entering) {
        fault_stats.degrade_enters += 1;
      } else {
        fault_stats.degrade_exits += 1;
      }
      if (tracing) trace->on_degrade(entering, now);
    }
    // Backoff expiry: re-enter failed requests through admission.  Ready
    // times are not monotone in queue order (backoff grows with each
    // request's own attempt count), so scan the whole queue.
    for (auto it = retry_queue.begin(); it != retry_queue.end();) {
      if (it->ready_time <= now) {
        scheduler.requeue_after_fault(it->request, it->emitted_first_token);
        if (tracing) {
          trace->on_recover(it->request.id, /*mechanism=*/0, now, 0,
                            it->attempt);
        }
        it = retry_queue.erase(it);
      } else {
        ++it;
      }
    }
  }

  bool work_pending() const {
    return next_arrival < requests.size() || !scheduler.idle() ||
           !retry_queue.empty();
  }

  bool pump(Seconds until) {
    for (;;) {
      if (finished || horizon_hit) return false;
      if (!work_pending()) return false;
      // Horizon cut (fairness studies): stop the engine at the configured
      // simulated second; whatever is in flight never completes.
      if (scenario.max_sim_seconds > 0 && now >= scenario.max_sim_seconds) {
        horizon_hit = true;
        return false;
      }
      if (now >= until) return true;
      if (faults_on) poll_faults();
      feed_arrivals(now);
      if (scheduler.idle()) {
        // Nothing to do until the next arrival or backoff expiry — but
        // never advance past the horizon: an event gap straddling it must
        // leave the final clock (and every shed timestamp) AT the horizon,
        // not at the far side of the gap.  The caller's stop point is a
        // jump target too: a cluster driver injects the next arrival there.
        Seconds next_time = std::numeric_limits<double>::infinity();
        if (next_arrival < requests.size()) {
          next_time = requests[next_arrival].arrival_time;
        }
        for (const PendingRetry& retry : retry_queue) {
          next_time = std::min(next_time, retry.ready_time);
        }
        if (scenario.max_sim_seconds > 0) {
          next_time = std::min(next_time, scenario.max_sim_seconds);
        }
        next_time = std::min(next_time, until);
        now = std::max(now, next_time);
        continue;
      }

      std::int64_t kv_alloc_before = 0;
      std::int64_t kv_reclaim_before = 0;
      if (tracing) {
        // Mid-step scheduler events are stamped with this step's start
        // time; KV churn is the delta across the step.
        trace->begin_step(metrics.total_steps, now);
        kv_alloc_before = kv_cache.blocks_allocated_total();
        kv_reclaim_before = kv_cache.cached_blocks_reclaimed_total();
      }
      scheduler.set_time(now);  // rate-capped admission reads the sim clock
      const bool stepped = scheduler.next_step(&step);
      // Deadline sheds (EDF admission control) surface here whether or not
      // a step ran; a shed request arrived but will never be admitted.
      for (std::int64_t id : step.shed_ids) {
        const std::size_t index = slot(id);
        traces[index].shed = true;
        outstanding_tokens -= total_tokens(requests[index]);
      }
      if (!stepped) {
        // Admission control shed every waiting request: nothing ran and
        // the clock is unchanged.  No kStep event is recorded (no step
        // happened); the loop idle-advances to the next arrival or exits.
        continue;
      }

      const bool is_prefill = step.kind == StepRecord::Kind::kPrefill;
      // Per-sequence costing: each participant's attention at its own
      // bucketed KV length (see cost_step).
      const StepCost layer_cost = cost_step(costs, step);
      // The moving rows of this step: prefill moves every chunk token,
      // decode one token per participant.
      const std::int64_t row_count =
          is_prefill ? std::accumulate(step.chunk_lens.begin(),
                                       step.chunk_lens.end(), std::int64_t{0})
                     : step.batch;
      const StepCharge charge =
          charge_step(layer_cost, row_count, step.swap_bytes,
                      faults_on && now < stall_until);
      now += charge.latency;
      const Seconds emit_time = now + charge.emit_extra;

      metrics.total_steps += 1;
      if (is_prefill) {
        metrics.prefill_steps += 1;
      } else {
        metrics.decode_steps += 1;
      }
      step_latency_histogram->observe(charge.latency);
      step_batch_histogram->observe(static_cast<double>(step.batch));
      if (tracing) {
        trace->end_step(is_prefill, step.batch, now, charge.latency,
                        kv_cache.referenced_blocks(),
                        kv_cache.blocks_allocated_total() - kv_alloc_before,
                        kv_cache.cached_blocks_reclaimed_total() -
                            kv_reclaim_before);
      }
      // Paged-KV gauge: last-block waste across resident mappings, sampled
      // once per engine step (identically 0 at block size 1).
      fragmentation_sum += kv_cache.internal_fragmentation();
      busy_time += charge.busy;
      metrics.mxu_energy += charge.mxu_energy;
      metrics.total_energy += charge.layer_energy;
      if (boundaries > 0) metrics.total_energy += charge.boundary_energy;

      for (std::int64_t id : step.first_token_ids) {
        RequestTrace& request_trace = traces[slot(id)];
        // Preempted-and-recomputed requests already streamed their first
        // token to the user; keep the original TTFT.
        if (request_trace.first_token < 0) {
          request_trace.first_token = emit_time;
          // The trace's kFirstToken is exactly the metrics' TTFT reference
          // point — recorded once, re-emissions after recompute excluded —
          // so timelines reconcile with ServingMetrics identically.
          if (tracing) trace->on_first_token(id, emit_time);
        }
      }
      for (std::int64_t id : step.finished_ids) {
        const std::size_t index = slot(id);
        const Request& request = requests[index];
        RequestTrace& request_trace = traces[index];
        // Each step's traversal extra is derived from that step's own
        // stage time, so a cheap decode step after an expensive prefill
        // step could nominally "exit" earlier in absolute time.  Real
        // pipelines preserve per-request emission order: clamp so
        // completion >= first token.
        request_trace.completion =
            std::max(emit_time, request_trace.first_token);
        metrics.completed += 1;
        metrics.generated_tokens += request.output_len;
        metrics.makespan = std::max(metrics.makespan, request_trace.completion);
        outstanding_tokens -= total_tokens(request);
        if (log_completions) {
          completed_log.emplace_back(index, request_trace.completion);
        }
        if (faults_on && request_trace.last_fault >= 0) {
          // A recompute repair closes when the re-admitted request finally
          // completes — that whole span is the outage the user saw.
          repair_times.push_back(request_trace.completion -
                                 request_trace.last_fault);
          request_trace.last_fault = -1;
        }
        if (tracing) {
          trace->on_finish(id, request_trace.completion, request.output_len);
        }
      }

      if (sampling && sampler.due(now)) {
        TimeSample sample;
        sample.time = now;
        sample.step = metrics.total_steps;
        sample.queue_depth =
            static_cast<std::int64_t>(scheduler.waiting_count());
        sample.resident_sequences =
            static_cast<std::int64_t>(scheduler.running_count());
        sample.resident_decoders = scheduler.resident_decoder_count();
        sample.swapped_sequences =
            static_cast<std::int64_t>(scheduler.swapped_count());
        sample.kv_referenced_blocks = kv_cache.referenced_blocks();
        sample.kv_occupied_blocks = kv_cache.occupied_blocks();
        sample.kv_capacity_blocks = kv_cache.capacity_blocks();
        sample.kv_internal_fragmentation = kv_cache.internal_fragmentation();
        sample.prefix_hit_rate = scheduler.counters().prefix_hit_rate();
        const auto& tenants = trace->tenant_admitted_tokens();
        sample.tenant_admitted_tokens.assign(tenants.begin(), tenants.end());
        sampler.record(std::move(sample));
      }
      // Faults poll and may stall before every step, so they keep the
      // per-step path (as do tracing and sampling: the scheduler reports
      // no quiet steps while a trace sink is attached).
      if (!faults_on) fast_forward_quiet_decode(until);
    }
  }

  /// What one engine step adds to the clock and to the busy-time and
  /// energy totals.
  struct StepCharge {
    Seconds latency = 0;     ///< clock advance: bottleneck stage + swap
    Seconds emit_extra = 0;  ///< remaining-stage traversal of emitted tokens
    Seconds busy = 0;        ///< MXU busy time over all stages and shards
    Joules mxu_energy = 0;
    Joules layer_energy = 0;     ///< all layers' total energy
    Joules boundary_energy = 0;  ///< pipeline handoffs (boundaries > 0)
  };

  StepCharge charge_step(const StepCost& layer_cost, std::int64_t row_count,
                         Bytes swap_bytes, bool stalled) const {
    StepCharge charge;
    // Inter-stage activation handoff: the step's moving rows cross each
    // pipeline boundary once.
    const Bytes boundary_bytes =
        static_cast<double>(row_count) * activation_elem_bytes;
    const Seconds transfer =
        boundaries > 0 ? chip.ici().p2p_time(boundary_bytes) : 0.0;

    // KV pages swapped to/from the host pool this step serialize with the
    // step on the PCIe-class link.
    const Seconds swap_time = swap_bytes / scenario.host_link_bandwidth;

    // Steady-state engine cadence: the bottleneck stage (ceiling share of
    // the layers) plus its handoff.  Tokens emitted this step additionally
    // traverse the remaining stages before leaving the pipeline.
    Seconds stage_time =
        static_cast<double>(stage_layers) * layer_cost.latency + transfer;
    if (tp_ways > 1) {
      // Megatron-style TP: every layer pays two ring all-reduces of this
      // step's [rows, d_model] activation across the shards
      // (parallel/multi_chip.h semantics, FULL-model d_model).
      const Bytes ar_bytes = parallel::tensor_parallel_allreduce_bytes(
          scenario.model, row_count);
      stage_time += static_cast<double>(layers) *
                    chip.ici().all_reduce_time(ar_bytes, tp_ways);
    }
    // A step starting inside a stall window pays the configured latency
    // multiplier on every stage (and hence on the pipeline traversal too).
    if (stalled) stage_time *= scenario.fault.stall_latency_multiplier;
    charge.emit_extra = static_cast<double>(boundaries) * stage_time;
    charge.latency = stage_time + swap_time;

    // TP shards replicate every layer's execution (and hence busy time and
    // energy) across `ways` chips; ways == 1 multiplies by exactly 1.0,
    // bit-identical to the pre-TP accounting.
    charge.busy =
        static_cast<double>(layers) * layer_cost.mxu_busy_time * tp_scale;
    charge.mxu_energy =
        static_cast<double>(layers) * layer_cost.mxu_energy * tp_scale;
    charge.layer_energy =
        static_cast<double>(layers) * layer_cost.total_energy * tp_scale;
    if (boundaries > 0) {
      charge.boundary_energy = static_cast<double>(boundaries) *
                               chip.ici().p2p_energy(boundary_bytes);
    }
    return charge;
  }

  // Commits the quiet decode runs ahead
  // (ContinuousBatchScheduler::quiet_decode_steps) without planning or
  // costing each step.  Every step of a run carries the scheduler's
  // current grouping, so all of them cost the same, move no rows across
  // the host link, and emit nothing.  A run whose grouping differs from
  // the cost cache's last-grouping memo is costed through
  // cost_decode_groups first — the counted lookups cost_step would make on
  // the run's first step — and only when that step would run, so the
  // cache's hit and miss counts match the per-step loop.  Only the
  // per-step float sums are replayed, the step histograms' sums included —
  // each adds the same double once per step, in order, so totals are
  // bit-identical to the per-step loop.  Runs chain back to back (a run
  // ending on a bucket crossing regroups the next) and stop where that
  // loop would stop before stepping again: at the next arrival (it would
  // be enqueued), at `until`, or at the horizon.
  void fast_forward_quiet_decode(Seconds until) {
    Seconds stop = until;
    if (next_arrival < requests.size()) {
      stop = std::min(stop, requests[next_arrival].arrival_time);
    }
    if (scenario.max_sim_seconds > 0) {
      stop = std::min(stop, scenario.max_sim_seconds);
    }
    // Constant over every run: quiet steps need block size 1, where the
    // gauge is identically 0.
    const double fragmentation = kv_cache.internal_fragmentation();
    for (;;) {
      // The scheduler's own early exits are the cheap test on steps that
      // cannot be quiet (e.g. work waiting under KV pressure).
      const std::int64_t quiet = scheduler.quiet_decode_steps();
      if (quiet == 0 || now >= stop) return;
      const std::int64_t batch = scheduler.resident_decoder_count();
      const auto& groups = scheduler.decode_histogram();
      if (!costs.last_decode_groups_match(groups)) {
        cost_decode_groups(costs, groups, batch);
      }
      const double batch_value = static_cast<double>(batch);
      const StepCharge charge =
          charge_step(costs.last_decode_groups_cost(), /*row_count=*/batch,
                      /*swap_bytes=*/0, /*stalled=*/false);
      // Local copies keep the sums in registers across the loop.
      Seconds clock = now;
      double fragmentation_total = fragmentation_sum;
      Seconds busy = busy_time;
      Joules mxu_energy = metrics.mxu_energy;
      Joules total_energy = metrics.total_energy;
      double latency_sum = step_latency_histogram->sum();
      double batch_sum = step_batch_histogram->sum();
      std::int64_t steps = 0;
      for (; steps < quiet && clock < stop; ++steps) {
        clock += charge.latency;
        fragmentation_total += fragmentation;
        busy += charge.busy;
        mxu_energy += charge.mxu_energy;
        total_energy += charge.layer_energy;
        if (boundaries > 0) total_energy += charge.boundary_energy;
        latency_sum += charge.latency;
        batch_sum += batch_value;
      }
      now = clock;
      fragmentation_sum = fragmentation_total;
      busy_time = busy;
      metrics.mxu_energy = mxu_energy;
      metrics.total_energy = total_energy;
      metrics.total_steps += steps;
      metrics.decode_steps += steps;
      step_latency_histogram->observe_replayed(charge.latency, steps,
                                               latency_sum);
      step_batch_histogram->observe_replayed(batch_value, steps, batch_sum);
      scheduler.advance_quiet_decode(steps);
      if (steps < quiet) return;  // the clock reached `stop`
    }
  }

  ServingMetrics finish() {
    CIMTPU_CHECK_MSG(!finished, "ServingEngine::finish called twice");
    finished = true;
    metrics.num_requests = static_cast<std::int64_t>(requests.size());
    metrics.counters = scheduler.counters();
    metrics.counters.shed_fault = fault_sheds;  // driver-owned shed cause
    metrics.sim_end_seconds = now;
    // Horizon-cut runs shed whatever arrived but never completed —
    // waiting, in flight, it makes no difference: the horizon ended its
    // story.  The counter advances UNCONDITIONALLY (metrics and traces
    // must agree); tracing only adds the terminal event so every traced
    // request has one.  Requests already shed by admission control got
    // their event (and their shed_deadline count) at shed time and are
    // skipped here.
    if (scenario.max_sim_seconds > 0) {
      for (std::size_t i = 0; i < next_arrival; ++i) {
        if (traces[i].completion >= 0 || traces[i].shed) continue;
        metrics.counters.shed_horizon += 1;
        if (tracing) trace->on_shed(requests[i].id, now);
      }
    }
    metrics.preemptions = metrics.counters.total_preemptions();
    metrics.prefix_hit_rate = metrics.counters.prefix_hit_rate();
    if (metrics.total_steps > 0) {
      metrics.kv_internal_fragmentation =
          fragmentation_sum / static_cast<double>(metrics.total_steps);
    }

    // --- Distributional rollups --------------------------------------------
    // TTFT and e2e samples are gathered per tenant only.  Each tenant's
    // sample is sorted once; the global sample is the merge of the sorted
    // tenant samples — the same ascending sequence a sort of the whole
    // sample gives, summed in the same order, so bit-identical.
    std::vector<double> tpot;
    tpot.reserve(next_arrival);
    std::map<std::int64_t, TenantAccum> tenant_accums;  // ascending tenant id
    const auto arrived = static_cast<std::int64_t>(next_arrival);
    std::int64_t slo_tokens = 0;  ///< output tokens of deadline-meeting
                                  ///< requests
    // Requests [0, next_arrival) arrived; the rest were cut by the horizon.
    for (std::size_t i = 0; i < next_arrival; ++i) {
      const Request& request = requests[i];
      const RequestTrace& request_trace = traces[i];
      // The accumulator (and hence the tenant's metrics row / Jain entry)
      // exists only once the tenant has a request that actually ARRIVED
      // within the simulated window — a tenant whose traffic all lands
      // past the horizon never participated and must not drag the index
      // down.
      TenantAccum& accum = tenant_accums[request.tenant_id];
      accum.num_requests += 1;
      // TTFT is determined the moment the first token leaves the pipeline,
      // so horizon-cut runs keep every emitted first token in the TTFT
      // sample — dropping still-in-flight requests would censor exactly
      // the slow admissions an overload study is trying to measure.
      // (Without a horizon every fed request completes, so this changes
      // nothing.)
      if (request_trace.first_token >= 0) {
        accum.ttft.push_back(request_trace.first_token - request.arrival_time);
      }
      if (request_trace.completion < 0) continue;  // shed or cut: misses SLO
      // Disaggregated decode replicas complete requests whose first token
      // streamed on the PREFILL replica (first_token < 0 locally): their
      // stitched TPOT belongs to the cluster rollup, never to this sample.
      if (request.output_len > 1 && request_trace.first_token >= 0) {
        tpot.push_back((request_trace.completion - request_trace.first_token) /
                       static_cast<double>(request.output_len - 1));
      }
      // Deadline-free completed requests meet vacuously, so deadline-free
      // streams report attainment 1.0 and slo_goodput == goodput.
      if (meets_slo(request, request_trace.first_token,
                    request_trace.completion)) {
        metrics.slo_met += 1;
        slo_tokens += request.output_len;
      }
      accum.completed += 1;
      accum.generated_tokens += request.output_len;
      accum.e2e.push_back(request_trace.completion - request.arrival_time);
    }
    metrics.tpot = summarize_latencies(std::move(tpot));
    if (arrived > 0) {
      metrics.slo_attainment = static_cast<double>(metrics.slo_met) /
                               static_cast<double>(arrived);
      metrics.availability = static_cast<double>(metrics.completed) /
                             static_cast<double>(arrived);
    }

    // --- Resilience rollup (schema-v8) -------------------------------------
    metrics.fault = fault_stats;
    if (!repair_times.empty()) {
      metrics.mttr_seconds =
          std::accumulate(repair_times.begin(), repair_times.end(), 0.0) /
          static_cast<double>(repair_times.size());
    }

    // --- Per-tenant breakdown (schema-v4) ----------------------------------
    // Weights resolve by the tenant id the config actually names
    // (TenantShare::tenant_id, index-bound when left at -1) — the SAME
    // resolution WFQ admission uses — so sparse or non-contiguous tenant
    // ids can never make Jain normalization and enforcement disagree.
    // Tenants the config does not name weigh 1.
    const AdmissionConfig& admission_config = scenario.scheduler.admission;
    std::vector<double> normalized_goodput;
    normalized_goodput.reserve(tenant_accums.size());
    std::vector<std::vector<double>> ttft_parts, e2e_parts;
    ttft_parts.reserve(tenant_accums.size());
    e2e_parts.reserve(tenant_accums.size());
    for (auto& [tenant_id, accum] : tenant_accums) {
      TenantMetrics tenant;
      tenant.tenant_id = tenant_id;
      tenant.weight = admission_config.share_for(tenant_id).weight;
      tenant.num_requests = accum.num_requests;
      tenant.completed = accum.completed;
      tenant.generated_tokens = accum.generated_tokens;
      sort_sample(accum.ttft);
      sort_sample(accum.e2e);
      tenant.ttft = summarize_sorted_latencies(accum.ttft);
      tenant.e2e = summarize_sorted_latencies(accum.e2e);
      ttft_parts.push_back(std::move(accum.ttft));
      e2e_parts.push_back(std::move(accum.e2e));
      if (metrics.makespan > 0) {
        tenant.goodput_tokens_per_second =
            static_cast<double>(accum.generated_tokens) / metrics.makespan;
      }
      normalized_goodput.push_back(tenant.goodput_tokens_per_second /
                                   tenant.weight);
      metrics.tenants.push_back(std::move(tenant));
    }
    metrics.ttft = summarize_sorted_latencies(
        merge_sorted_samples(std::move(ttft_parts)));
    metrics.e2e =
        summarize_sorted_latencies(merge_sorted_samples(std::move(e2e_parts)));
    if (metrics.tenants.size() > 1) {
      metrics.jain_fairness = jain_fairness_index(normalized_goodput);
    }

    if (metrics.makespan > 0) {
      metrics.goodput_tokens_per_second =
          static_cast<double>(metrics.generated_tokens) / metrics.makespan;
      metrics.slo_goodput_tokens_per_second =
          static_cast<double>(slo_tokens) / metrics.makespan;
      metrics.mxu_utilization =
          busy_time / (metrics.makespan * static_cast<double>(metrics.chips));
    }
    if (metrics.generated_tokens > 0) {
      metrics.energy_per_token =
          metrics.total_energy / static_cast<double>(metrics.generated_tokens);
    }
    metrics.cost_cache_entries = costs.size();
    metrics.cost_cache_hits = costs.hits();
    metrics.cost_cache_misses = costs.misses();
    metrics.cost_cache_occupancy = costs.occupancy();

    // --- Observability rollup ----------------------------------------------
    // Every subsystem publishes into the run's registry; all inputs are
    // deterministic simulated state, so the registry (like every metric
    // above) is bit-identical with tracing on or off.
    metrics.registry.set_counter("engine.total_steps", metrics.total_steps);
    metrics.registry.set_counter("engine.prefill_steps",
                                 metrics.prefill_steps);
    metrics.registry.set_counter("engine.decode_steps", metrics.decode_steps);
    metrics.registry.set_counter("engine.completed", metrics.completed);
    metrics.registry.set_counter("engine.generated_tokens",
                                 metrics.generated_tokens);
    metrics.registry.set_gauge("engine.makespan_s", metrics.makespan);
    metrics.registry.set_gauge("engine.sim_end_s", metrics.sim_end_seconds);
    metrics.registry.set_gauge("engine.slo_attainment",
                               metrics.slo_attainment);
    metrics.registry.set_gauge("engine.slo_goodput_tokens_per_s",
                               metrics.slo_goodput_tokens_per_second);
    metrics.registry.set_gauge("engine.availability", metrics.availability);
    if (faults_on) {
      // Fault-only keys are gated so an off run's registry matches
      // pre-fault builds key for key.
      metrics.registry.set_gauge("engine.mttr_s", metrics.mttr_seconds);
      metrics.registry.set_counter("engine.wasted_recompute_tokens",
                                   metrics.fault.wasted_recompute_tokens);
      metrics.registry.set_counter("engine.retries_total",
                                   metrics.fault.retries);
      metrics.fault.publish(&metrics.registry);
    }
    metrics.counters.publish(&metrics.registry);
    costs.publish(&metrics.registry);
    kv_cache.publish(&metrics.registry);
    scheduler.admission_policy().publish(&metrics.registry);

    metrics.timeseries = sampler.take();
    write_trace_files(*trace, metrics.timeseries);  // no-op without a dir

    metrics.sim_wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    return std::move(metrics);
  }
};

ServingEngine::ServingEngine(const ServingScenario& scenario,
                             SharedStepCostCache* shared_costs,
                             ServingTrace* trace_out) {
  scenario.validate();
  impl_ = std::make_unique<Impl>(scenario, shared_costs, trace_out);
}

ServingEngine::~ServingEngine() = default;

void ServingEngine::inject(const Request& request) {
  impl_->inject(request, /*prefilled=*/false);
}

void ServingEngine::inject_prefilled(const Request& request) {
  CIMTPU_CONFIG_CHECK(request.output_len >= 2,
                      "inject_prefilled: request "
                          << request.id << " has no decode work (output_len="
                          << request.output_len << ")");
  impl_->inject(request, /*prefilled=*/true);
}

bool ServingEngine::pump(Seconds until) { return impl_->pump(until); }

void ServingEngine::drain() {
  impl_->pump(std::numeric_limits<double>::infinity());
}

ServingMetrics ServingEngine::finish() { return impl_->finish(); }

Seconds ServingEngine::now() const { return impl_->now; }

bool ServingEngine::work_pending() const {
  return !impl_->horizon_hit && impl_->work_pending();
}

std::int64_t ServingEngine::outstanding_tokens() const {
  return impl_->outstanding_tokens;
}

void ServingEngine::set_completion_log(bool enabled) {
  impl_->log_completions = enabled;
}

std::vector<std::pair<std::size_t, Seconds>>
ServingEngine::take_completions() {
  return std::move(impl_->completed_log);
}

std::vector<ServingEngine::RequestOutcome> ServingEngine::outcomes() const {
  std::vector<RequestOutcome> out;
  out.reserve(impl_->requests.size());
  for (std::size_t i = 0; i < impl_->requests.size(); ++i) {
    const Request& request = impl_->requests[i];
    RequestOutcome outcome;
    outcome.id = request.id;
    outcome.arrival = request.arrival_time;
    outcome.output_len = request.output_len;
    outcome.tenant_id = request.tenant_id;
    if (i < impl_->next_arrival) {
      const RequestTrace& request_trace = impl_->traces[i];
      outcome.arrived = true;
      outcome.first_token = request_trace.first_token;
      outcome.completion = request_trace.completion;
      outcome.shed = request_trace.shed;
    }
    out.push_back(outcome);
  }
  return out;
}

ServingMetrics run_serving(const ServingScenario& scenario,
                           const std::vector<Request>& requests,
                           SharedStepCostCache* shared_costs,
                           ServingTrace* trace_out) {
  ServingEngine engine(scenario, shared_costs, trace_out);
  for (const Request& request : requests) engine.inject(request);
  engine.drain();
  return engine.finish();
}

ServingMetrics run_serving(const ServingScenario& scenario,
                           const RequestStreamConfig& stream,
                           SharedStepCostCache* shared_costs,
                           ServingTrace* trace_out) {
  return run_serving(scenario, generate_requests(stream), shared_costs,
                     trace_out);
}

}  // namespace cimtpu::serving
