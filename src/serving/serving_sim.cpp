#include "serving/serving_sim.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <numeric>
#include <unordered_map>

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

/// A request's timeline, parallel to the engine's injected requests
/// (arrival, lengths and tenant live in the caller's Request, which the
/// engine reads in place).
struct RequestTrace {
  Seconds first_token = -1;  ///< < 0 until the first token is emitted
  Seconds completion = -1;
};

/// Per-request flag bits, one byte per injected request.
enum RequestFlag : std::uint8_t {
  kShed = 1,       ///< dropped by admission control or a fault, or cut by
                   ///< the horizon (marked at finish); never completes
  kPrefilled = 2,  ///< injected by inject_prefilled (decode only)
};

/// A fault-struck request's recovery state; only fault runs keep any.
struct FaultRecord {
  Seconds last_fault = -1;  ///< open repair interval: a fault struck and
                            ///< the request has not recovered yet
  int retry_attempts = 0;   ///< fault re-admissions consumed (vs the budget)
};

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

/// One tenant's share of a rollup's arrived rows.
struct TenantTally {
  std::int64_t num_requests = 0;
  std::int64_t completed = 0;  ///< also its e2e sample size
  std::int64_t generated_tokens = 0;
  std::int64_t first_tokens = 0;  ///< its TTFT sample size
  std::size_t fill = 0;  ///< next free slot of its segment during a layout
};

}  // namespace

void rollup_requests(std::size_t max_rows,
                     const ForEachRequestRow& for_each_row,
                     const AdmissionConfig& admission,
                     ServingMetrics* metrics) {
  // One buffer holds each latency sample in turn, and `scratch` is the
  // sorts' second buffer.
  std::vector<double> sample(max_rows);
  std::vector<double> scratch;

  // --- Counters, makespan, sample sizes and the TPOT sample ---------------
  // A tenant's row (and Jain entry) exists only once it has a request that
  // actually ARRIVED within the simulated window — a tenant whose traffic
  // all lands past the horizon never participated and must not drag the
  // index down.
  std::map<std::int64_t, TenantTally> tallies;  // ascending tenant id
  std::int64_t arrived = 0;
  std::int64_t completed = 0;
  std::int64_t generated_tokens = 0;
  std::int64_t slo_met = 0;
  std::int64_t slo_tokens = 0;  // output tokens of deadline-meeting
                                // completions
  std::size_t tpot_count = 0;
  Seconds makespan = 0;
  for_each_row([&](const RequestRow& row) {
    const Request& request = *row.request;
    arrived += 1;
    CIMTPU_CHECK(static_cast<std::size_t>(arrived) <= max_rows);
    TenantTally& tenant = tallies[request.tenant_id];
    tenant.num_requests += 1;
    // TTFT is determined the moment the first token leaves the pipeline,
    // so horizon-cut runs keep every emitted first token in the TTFT
    // sample — dropping still-in-flight requests would censor exactly the
    // slow admissions an overload study is trying to measure.
    if (row.first_token >= 0) tenant.first_tokens += 1;
    if (row.completion < 0) return;  // shed or cut: misses its SLO
    completed += 1;
    generated_tokens += request.output_len;
    makespan = std::max(makespan, row.completion);
    // Disaggregated decode replicas complete requests whose first token
    // streamed on the PREFILL replica (no local first token): their TPOT
    // belongs to the cluster's stitched rollup, never to the replica's.
    if (request.output_len > 1 && row.first_token >= 0) {
      sample[tpot_count++] = (row.completion - row.first_token) /
                             static_cast<double>(request.output_len - 1);
    }
    // Deadline-free completed requests meet vacuously, so deadline-free
    // streams report attainment 1.0 and slo_goodput == goodput.
    if (meets_slo(request, row.first_token, row.completion)) {
      slo_met += 1;
      slo_tokens += request.output_len;
    }
    tenant.completed += 1;
    tenant.generated_tokens += request.output_len;
  });
  sort_sample(sample.data(), sample.data() + tpot_count, &scratch);
  metrics->tpot =
      summarize_sorted_latencies(sample.data(), sample.data() + tpot_count);
  metrics->completed = completed;
  metrics->generated_tokens = generated_tokens;
  metrics->makespan = makespan;
  metrics->slo_met = slo_met;
  if (arrived > 0) {
    metrics->slo_attainment =
        static_cast<double>(slo_met) / static_cast<double>(arrived);
    metrics->availability =
        static_cast<double>(completed) / static_cast<double>(arrived);
  }
  if (makespan > 0) {
    metrics->goodput_tokens_per_second =
        static_cast<double>(generated_tokens) / makespan;
    metrics->slo_goodput_tokens_per_second =
        static_cast<double>(slo_tokens) / makespan;
  }

  // Per-tenant breakdown (schema-v4).  Weights come from
  // AdmissionConfig::tenant_weight — the SAME lookup WFQ admission uses —
  // so Jain normalization and enforcement never disagree.  Unnamed tenants
  // weigh 1.
  std::vector<double> normalized_goodput;
  normalized_goodput.reserve(tallies.size());
  for (const auto& [tenant_id, tally] : tallies) {
    TenantMetrics tenant;
    tenant.tenant_id = tenant_id;
    tenant.weight = admission.tenant_weight(tenant_id);
    tenant.num_requests = tally.num_requests;
    tenant.completed = tally.completed;
    tenant.generated_tokens = tally.generated_tokens;
    if (makespan > 0) {
      tenant.goodput_tokens_per_second =
          static_cast<double>(tally.generated_tokens) / makespan;
    }
    normalized_goodput.push_back(tenant.goodput_tokens_per_second /
                                 tenant.weight);
    metrics->tenants.push_back(std::move(tenant));
  }
  if (metrics->tenants.size() > 1) {
    metrics->jain_fairness = jain_fairness_index(normalized_goodput);
  }

  // --- TTFT and e2e, one after the other in the same buffer ---------------
  // Lays one latency per row that has one (`latency` returns false for a
  // row without) into the buffer, each tenant's in its own segment
  // (ascending tenant id, `size` values each); sorts and summarizes each
  // segment into its tenant row's `summary`, then re-sorts the whole
  // buffer and returns its summary.  The ascending sequence of a multiset
  // is unique, so that is the summary a single sort of the whole sample
  // gives, bit for bit.
  const auto summarize_by_tenant = [&](auto latency,
                                       std::int64_t TenantTally::*size,
                                       LatencySummary TenantMetrics::*summary) {
    std::size_t end = 0;
    for (auto& [tenant_id, tally] : tallies) {
      tally.fill = end;
      end += static_cast<std::size_t>(tally.*size);
    }
    for_each_row([&](const RequestRow& row) {
      double value;
      if (latency(row, &value)) {
        sample[tallies.find(row.request->tenant_id)->second.fill++] = value;
      }
    });
    double* const data = sample.data();
    double* first = data;
    auto tenant = metrics->tenants.begin();
    for (const auto& [tenant_id, tally] : tallies) {
      double* const last = first + tally.*size;
      sort_sample(first, last, &scratch);
      (*tenant++).*summary = summarize_sorted_latencies(first, last);
      first = last;
    }
    if (tallies.size() > 1) sort_sample(data, data + end, &scratch);
    return summarize_sorted_latencies(data, data + end);
  };
  metrics->ttft = summarize_by_tenant(
      [](const RequestRow& row, double* value) {
        *value = row.first_token - row.request->arrival_time;
        return row.first_token >= 0;
      },
      &TenantTally::first_tokens, &TenantMetrics::ttft);
  metrics->e2e = summarize_by_tenant(
      [](const RequestRow& row, double* value) {
        *value = row.completion - row.request->arrival_time;
        return row.completion >= 0;
      },
      &TenantTally::completed, &TenantMetrics::e2e);
}

void derive_metrics(Seconds mxu_busy_chip_seconds, ServingMetrics* metrics) {
  metrics->preemptions = metrics->counters.total_preemptions();
  metrics->prefix_hit_rate = metrics->counters.prefix_hit_rate();
  if (metrics->makespan > 0 && metrics->chips > 0) {
    metrics->mxu_utilization =
        mxu_busy_chip_seconds /
        (metrics->makespan * static_cast<double>(metrics->chips));
  }
  if (metrics->generated_tokens > 0) {
    metrics->energy_per_token =
        metrics->total_energy / static_cast<double>(metrics->generated_tokens);
  }
}

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

  // Dense per-request state, 29 B a request: request i (injection order)
  // has arrived iff i < next_arrival.  Scheduler-reported ids resolve
  // through `slot_of`, which finish() releases.  The requests themselves
  // stay in the caller's storage (see inject).
  std::vector<const Request*> requests;  ///< injected, arrival-sorted
  std::vector<RequestTrace> traces;  ///< parallel to `requests`
  std::vector<std::uint8_t> flags;   ///< parallel to `requests`: RequestFlag
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
  std::deque<PendingRetry> retry_queue;
  /// Request index -> recovery state, for the requests a fault struck.
  std::unordered_map<std::size_t, FaultRecord> fault_records;
  std::vector<double> repair_times;  ///< MTTR samples (seconds)
  Seconds stall_until = -1;          ///< active stall window end

  StepRecord step;  // reused across all steps and reserved to
                    // steady-state capacity, so the serving loop
                    // allocates nothing per step

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
        scheduler(scenario.scheduler, &kv_cache),
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
        fault_process(scenario.fault) {
    step.reserve(scenario.scheduler.max_batch,
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
    requests.push_back(&request);
    traces.emplace_back();
    flags.push_back(prefilled ? kPrefilled : 0);
    outstanding_tokens += total_tokens(request);
  }

  /// Injects `batch` in order with the per-request arrays sized for it
  /// first, so its injections neither regrow them nor allocate per
  /// request.  An id out of range sizes nothing: its inject throws.
  void inject_all(const std::vector<Request>& batch) {
    std::int64_t max_id = -1;
    for (const Request& request : batch) {
      max_id = std::max(max_id, request.id);
    }
    requests.reserve(requests.size() + batch.size());
    traces.reserve(traces.size() + batch.size());
    flags.reserve(flags.size() + batch.size());
    if (max_id <= kMaxRequestId &&
        static_cast<std::size_t>(max_id + 1) > slot_of.size()) {
      slot_of.resize(static_cast<std::size_t>(max_id + 1), -1);
    }
    for (const Request& request : batch) inject(request, /*prefilled=*/false);
  }

  /// Index of the injected request with scheduler-reported `id`.
  std::size_t slot(std::int64_t id) const {
    return static_cast<std::size_t>(slot_of[static_cast<std::size_t>(id)]);
  }

  void feed_arrivals(Seconds up_to) {
    while (next_arrival < requests.size() &&
           requests[next_arrival]->arrival_time <= up_to) {
      const Request& request = *requests[next_arrival];
      CIMTPU_CONFIG_CHECK(
          next_arrival == 0 ||
              requests[next_arrival - 1]->arrival_time <= request.arrival_time,
          "request trace must be sorted by arrival time");
      if (tracing) trace->on_arrive(request);
      if ((flags[next_arrival] & kPrefilled) != 0) {
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
    metrics.fault.wasted_recompute_tokens +=
        (progress.prefilled - progress.prefix_skipped) + progress.generated;
    const std::size_t index = slot(request_id);
    FaultRecord& record = fault_records[index];
    record.last_fault = fault_time;
    if (scenario.fault.recovery_enabled &&
        record.retry_attempts < kRetryBudget) {
      record.retry_attempts += 1;
      const Seconds backoff = std::min(
          kRetryBackoffBaseSeconds *
              std::pow(2.0, static_cast<double>(record.retry_attempts - 1)),
          kRetryBackoffMaxSeconds);
      metrics.fault.retries += 1;
      retry_queue.push_back(PendingRetry{request, fault_time + backoff,
                                         record.retry_attempts,
                                         traces[index].first_token >= 0});
    } else {
      flags[index] |= kShed;
      record.last_fault = -1;  // dropped, never repaired: not in MTTR
      metrics.fault.dropped += 1;
      outstanding_tokens -= total_tokens(*requests[index]);
      // Faults are delivered between steps, so one that landed mid-step
      // drops the request only after that step ran: the shed is stamped at
      // delivery, never before a first token the step emitted, and the
      // request's decode span cannot end before it starts.
      if (tracing) {
        trace->on_shed_fault(request_id,
                             std::max(now, traces[index].first_token));
      }
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
                                 event.time + kStallDurationSeconds);
          metrics.fault.stalls += 1;
          degrade.on_fault(event.time);
          if (tracing) {
            trace->on_fault(-1, static_cast<std::int64_t>(FaultType::kStall),
                            event.time, 0, kStallDurationSeconds);
          }
          break;
        }
        case FaultType::kKvLoss: {
          const std::int64_t resident =
              static_cast<std::int64_t>(scheduler.running_count());
          if (resident == 0) break;  // struck an empty device: no-op
          metrics.fault.kv_losses += 1;
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
          if (scenario.fault.recovery_enabled) {
            Bytes bytes = 0;
            if (scheduler.restore_resident_from_host(info.request_id,
                                                     &bytes)) {
              // In-place repair: the engine pays the PCIe re-fetch before
              // the next step runs.
              const Seconds restore_time =
                  bytes / scenario.host_link_bandwidth;
              now += restore_time;
              metrics.fault.host_restores += 1;
              metrics.fault.host_restore_bytes += bytes;
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
          metrics.fault.device_failures += 1;
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
                event.time, lost_tokens, kDeviceRestartSeconds);
          }
          for (std::int64_t id : victims) fault_evict(id, event.time);
          kv_cache.drop_cached_blocks();  // prefix cache does not survive
          // Downtime: the engine is back at the end of the restart epoch
          // (clamped to the horizon like the idle-advance below).
          Seconds resume = event.time + kDeviceRestartSeconds;
          if (scenario.max_sim_seconds > 0) {
            resume = std::min(resume, scenario.max_sim_seconds);
          }
          now = std::max(now, resume);
          break;
        }
      }
    }
    if (degrade.update(now)) {
      const bool entering = degrade.degraded();
      scheduler.set_degraded(entering);
      kv_cache.set_prefix_admission_paused(entering);
      if (entering) {
        metrics.fault.degrade_enters += 1;
      } else {
        metrics.fault.degrade_exits += 1;
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
          next_time = requests[next_arrival]->arrival_time;
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
      scheduler.set_time(now);  // EDF's deadline sheds read the sim clock
      const bool stepped = scheduler.next_step(&step);
      // Deadline sheds (EDF admission control) surface here whether or not
      // a step ran; a shed request arrived but will never be admitted.
      for (std::int64_t id : step.shed_ids) {
        const std::size_t index = slot(id);
        flags[index] |= kShed;
        outstanding_tokens -= total_tokens(*requests[index]);
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
        const Request& request = *requests[index];
        RequestTrace& request_trace = traces[index];
        // Each step's traversal extra is derived from that step's own
        // stage time, so a cheap decode step after an expensive prefill
        // step could nominally "exit" earlier in absolute time.  Real
        // pipelines preserve per-request emission order: clamp so
        // completion >= first token.
        request_trace.completion =
            std::max(emit_time, request_trace.first_token);
        outstanding_tokens -= total_tokens(request);
        if (log_completions) {
          completed_log.emplace_back(index, request_trace.completion);
        }
        if (faults_on) {
          const auto struck = fault_records.find(index);
          if (struck != fault_records.end() &&
              struck->second.last_fault >= 0) {
            // A recompute repair closes when the re-admitted request
            // finally completes — that whole span is the outage the user
            // saw.
            repair_times.push_back(request_trace.completion -
                                   struck->second.last_fault);
            struck->second.last_fault = -1;
          }
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
    // A step starting inside a stall window pays kStallLatencyMultiplier
    // multiplier on every stage (and hence on the pipeline traversal too).
    if (stalled) stage_time *= kStallLatencyMultiplier;
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
  // bit-identical to the per-step loop.  At block sizes > 1 the
  // fragmentation gauge moves within a run, so the KV manager replays its
  // per-step readings (add_fragmentation_over).  Runs chain back to back (a run
  // ending on a bucket crossing regroups the next) and stop where that
  // loop would stop before stepping again: at the next arrival (it would
  // be enqueued), at `until`, or at the horizon.
  void fast_forward_quiet_decode(Seconds until) {
    Seconds stop = until;
    if (next_arrival < requests.size()) {
      stop = std::min(stop, requests[next_arrival]->arrival_time);
    }
    if (scenario.max_sim_seconds > 0) {
      stop = std::min(stop, scenario.max_sim_seconds);
    }
    for (;;) {
      // The scheduler's own early exits are the cheap test on steps that
      // cannot be quiet (e.g. waiting work that could enter).
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
      Seconds busy = busy_time;
      Joules mxu_energy = metrics.mxu_energy;
      Joules total_energy = metrics.total_energy;
      double latency_sum = step_latency_histogram->sum();
      double batch_sum = step_batch_histogram->sum();
      std::int64_t steps = 0;
      for (; steps < quiet && clock < stop; ++steps) {
        clock += charge.latency;
        busy += charge.busy;
        mxu_energy += charge.mxu_energy;
        total_energy += charge.layer_energy;
        if (boundaries > 0) total_energy += charge.boundary_energy;
        latency_sum += charge.latency;
        batch_sum += batch_value;
      }
      now = clock;
      fragmentation_sum =
          kv_cache.add_fragmentation_over(steps, fragmentation_sum);
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
    metrics.counters.shed_fault = metrics.fault.dropped;  // driver-owned
    metrics.sim_end_seconds = now;
    // Horizon-cut runs shed whatever arrived but never completed —
    // waiting, in flight, it makes no difference: the horizon ended its
    // story.  The counter advances UNCONDITIONALLY (metrics and traces
    // must agree), and the request's outcome turns shed; tracing only adds
    // the terminal event so every traced request has one.  Requests
    // already shed by admission control got their event (and their
    // shed_deadline count) at shed time and are skipped here.
    if (scenario.max_sim_seconds > 0) {
      for (std::size_t i = 0; i < next_arrival; ++i) {
        if (traces[i].completion >= 0 || (flags[i] & kShed) != 0) continue;
        flags[i] |= kShed;
        metrics.counters.shed_horizon += 1;
        if (tracing) trace->on_shed(requests[i]->id, now);
      }
    }
    if (metrics.total_steps > 0) {
      metrics.kv_internal_fragmentation =
          fragmentation_sum / static_cast<double>(metrics.total_steps);
    }

    // --- Request rollup ----------------------------------------------------
    // Requests [0, next_arrival) arrived; the rest were cut by the horizon.
    // Ids resolve no more (inject fails from here on), so the id table
    // goes before the rollup's sample buffers arrive.
    std::vector<std::int32_t>().swap(slot_of);
    rollup_requests(
        next_arrival,
        [this](const std::function<void(const RequestRow&)>& visit) {
          for (std::size_t i = 0; i < next_arrival; ++i) {
            visit(RequestRow{requests[i], traces[i].first_token,
                             traces[i].completion});
          }
        },
        scenario.scheduler.admission, &metrics);

    // --- Resilience rollup (schema-v8) -------------------------------------
    if (!repair_times.empty()) {
      metrics.mttr_seconds =
          std::accumulate(repair_times.begin(), repair_times.end(), 0.0) /
          static_cast<double>(repair_times.size());
    }

    metrics.cost_cache_entries = costs.size();
    metrics.cost_cache_hits = costs.hits();
    metrics.cost_cache_misses = costs.misses();
    metrics.cost_cache_occupancy = costs.occupancy();
    derive_metrics(busy_time, &metrics);

    // --- Observability rollup ----------------------------------------------
    // Every subsystem publishes into the run's registry; all inputs are
    // deterministic simulated state, so the registry (like every metric
    // above) is bit-identical with tracing on or off.  Fault-only keys are
    // gated so an off run's registry matches pre-fault builds key for key.
    publish_keys(metrics, &FieldKeys::engine, /*gate_open=*/faults_on,
                 /*prefix=*/"", &metrics.registry);
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

void ServingEngine::inject_all(const std::vector<Request>& requests) {
  impl_->inject_all(requests);
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
  std::vector<RequestOutcome> out(impl_->requests.size());
  for (std::size_t i = 0; i < impl_->next_arrival; ++i) {
    const RequestTrace& request_trace = impl_->traces[i];
    out[i] = RequestOutcome{request_trace.first_token,
                            request_trace.completion, /*arrived=*/true,
                            (impl_->flags[i] & kShed) != 0};
  }
  return out;
}

ServingMetrics run_serving(const ServingScenario& scenario,
                           const std::vector<Request>& requests,
                           SharedStepCostCache* shared_costs,
                           ServingTrace* trace_out) {
  ServingEngine engine(scenario, shared_costs, trace_out);
  engine.inject_all(requests);
  engine.drain();
  return engine.finish();
}

}  // namespace cimtpu::serving
