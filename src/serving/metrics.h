#pragma once
// Distributional latency metrics for the serving simulator: percentile
// math, the TTFT/TPOT/end-to-end summaries SLO reports are built from,
// the per-tenant breakdown (plus Jain's fairness index) multi-tenant QoS
// policies are judged by, and the event counters (preemptions per policy,
// swap traffic, chunked prefill activity, paged-KV prefix-cache hits) the
// scheduler accumulates across a run.
//
// Field tables: each metrics struct lists its fields once, in its static
// `for_each_field(visit)`, which calls `visit(name, &Struct::member)` per
// field in declaration order (publishing structs pass the registry key as
// a third argument).  Registry publishing, cluster flattening and the
// bit-identity checks iterate these tables, so a new field is written in
// its struct and its table; `serving_rollup_test`'s drift guard fails when
// a table misses one.

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "serving/stats.h"  // percentile math (shared with the registry)

namespace cimtpu::serving {

class MetricsRegistry;

/// Five-number summary of a latency sample.
struct LatencySummary {
  std::int64_t count = 0;
  Seconds mean = 0;
  Seconds p50 = 0;
  Seconds p95 = 0;
  Seconds p99 = 0;
  Seconds max = 0;

  /// `visit(name, &LatencySummary::member)` per field.
  template <typename Visit>
  static void for_each_field(Visit&& visit) {
    visit("count", &LatencySummary::count);
    visit("mean", &LatencySummary::mean);
    visit("p50", &LatencySummary::p50);
    visit("p95", &LatencySummary::p95);
    visit("p99", &LatencySummary::p99);
    visit("max", &LatencySummary::max);
  }
};

/// Sorts `values` in place (sort_sample) and summarizes it; the mean sums
/// the sorted sample in ascending order.
LatencySummary summarize_latencies(std::vector<double>&& values);

/// Summary of an already ascending-sorted sample (sort_sample order).
/// With merge_sorted_samples this summarizes the union of several sorted
/// parts bit-identically to summarize_latencies over their concatenation.
LatencySummary summarize_sorted_latencies(const std::vector<double>& sorted);

/// Jain's fairness index of an allocation: (sum x)^2 / (n * sum x^2), in
/// (0, 1] — 1.0 when every x is equal, 1/n when one party takes all.  By
/// convention an empty or all-zero allocation is perfectly fair (1.0).
/// For weighted fairness pass weight-NORMALIZED allocations (x_i / w_i).
double jain_fairness_index(const std::vector<double>& values);

/// Per-tenant slice of a serving run: the QoS a weighted-fair admission
/// policy trades between tenants.  `weight` is the share the deployment's
/// AdmissionConfig assigns the tenant (1.0 when unconfigured); goodput is
/// the tenant's completed output tokens over the run's makespan, so
/// tenant goodput ratios track admitted-token share ratios.
struct TenantMetrics {
  std::int64_t tenant_id = 0;
  double weight = 1.0;
  std::int64_t num_requests = 0;  ///< arrivals within the simulated window
  std::int64_t completed = 0;
  std::int64_t generated_tokens = 0;  ///< across completed requests
  LatencySummary ttft;
  LatencySummary e2e;
  double goodput_tokens_per_second = 0;

  /// `visit(name, &TenantMetrics::member)` per field.
  template <typename Visit>
  static void for_each_field(Visit&& visit) {
    using T = TenantMetrics;
    visit("tenant_id", &T::tenant_id);
    visit("weight", &T::weight);
    visit("num_requests", &T::num_requests);
    visit("completed", &T::completed);
    visit("generated_tokens", &T::generated_tokens);
    visit("ttft", &T::ttft);
    visit("e2e", &T::e2e);
    visit("goodput_tokens_per_second", &T::goodput_tokens_per_second);
  }
};

/// Scheduler event counters, split by mechanism so policy behaviour is
/// observable: recompute preemptions drop KV and re-queue the request from
/// scratch, swap preemptions move KV pages to the host pool and restore
/// them later (no prompt recompute).
struct ServingCounters {
  std::int64_t preemptions_recompute = 0;  ///< KV dropped, prompt recomputed
  std::int64_t preemptions_swap = 0;       ///< KV swapped out to the host pool
  std::int64_t swap_ins = 0;               ///< sequences restored from host
  Bytes swap_out_bytes = 0;                ///< device -> host PCIe traffic
  Bytes swap_in_bytes = 0;                 ///< host -> device PCIe traffic
  std::int64_t chunked_prefill_steps = 0;  ///< prefill steps that split a prompt

  // Paged-KV prefix caching (all 0 with the cache disabled): at each
  // admission carrying a prefix tag, `prefix_lookup_tokens` counts the
  // prefix tokens eligible for reuse and `prefix_hit_tokens` the tokens
  // actually served from cached blocks (prefill skipped for them);
  // `prefix_shared_blocks` counts block mappings satisfied by a
  // refcount++ on an existing physical block (device blocks saved), and
  // `prefix_cow_blocks` the private copies made of a shared partial tail
  // block (copy-on-write at the certain divergence point).
  std::int64_t prefix_lookup_tokens = 0;
  std::int64_t prefix_hit_tokens = 0;
  std::int64_t prefix_shared_blocks = 0;
  std::int64_t prefix_cow_blocks = 0;

  // Load shedding, split by cause.  A shed request arrived but will never
  // complete; all three counters advance whether or not tracing is enabled
  // (tracing only adds events, never counters).  `shed_deadline` counts
  // requests dropped by admission control because their TTFT deadline
  // provably could not be met (EDF shedding); `shed_horizon` counts
  // requests still waiting or in flight when `max_sim_seconds` stopped
  // the run; `shed_fault` counts requests dropped by the fault subsystem
  // (recovery disabled, or the retry budget was exhausted — serving/
  // fault.h).  Always 0 with fault injection off.
  std::int64_t shed_deadline = 0;
  std::int64_t shed_horizon = 0;
  std::int64_t shed_fault = 0;

  std::int64_t total_preemptions() const;
  std::int64_t total_shed() const;
  Bytes total_swap_bytes() const;
  /// prefix_hit_tokens / prefix_lookup_tokens; 0 when nothing was looked
  /// up (cache disabled or no tagged requests).
  double prefix_hit_rate() const;

  /// Publishes every field into `registry` under its table key (int64
  /// fields as counters, byte counts as gauges) plus the derived
  /// "scheduler.prefix_hit_rate" gauge (serving/obs_registry.h).
  void publish(MetricsRegistry* registry) const;

  /// `visit(name, &ServingCounters::member, registry_key)` per field.
  template <typename Visit>
  static void for_each_field(Visit&& visit) {
    using C = ServingCounters;
    visit("preemptions_recompute", &C::preemptions_recompute,
          "scheduler.preemptions_recompute");
    visit("preemptions_swap", &C::preemptions_swap,
          "scheduler.preemptions_swap");
    visit("swap_ins", &C::swap_ins, "scheduler.swap_ins");
    visit("swap_out_bytes", &C::swap_out_bytes, "scheduler.swap_out_bytes");
    visit("swap_in_bytes", &C::swap_in_bytes, "scheduler.swap_in_bytes");
    visit("chunked_prefill_steps", &C::chunked_prefill_steps,
          "scheduler.chunked_prefill_steps");
    visit("prefix_lookup_tokens", &C::prefix_lookup_tokens,
          "scheduler.prefix_lookup_tokens");
    visit("prefix_hit_tokens", &C::prefix_hit_tokens,
          "scheduler.prefix_hit_tokens");
    visit("prefix_shared_blocks", &C::prefix_shared_blocks,
          "scheduler.prefix_shared_blocks");
    visit("prefix_cow_blocks", &C::prefix_cow_blocks,
          "scheduler.prefix_cow_blocks");
    visit("shed_deadline", &C::shed_deadline, "scheduler.shed_deadline");
    visit("shed_horizon", &C::shed_horizon, "scheduler.shed_horizon");
    visit("shed_fault", &C::shed_fault, "scheduler.shed_fault");
  }
};

}  // namespace cimtpu::serving
