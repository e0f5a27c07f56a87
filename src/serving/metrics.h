#pragma once
// Distributional latency metrics for the serving simulator: percentile
// math, the TTFT/TPOT/end-to-end summaries SLO reports are built from,
// the per-tenant breakdown (plus Jain's fairness index) multi-tenant QoS
// policies are judged by, and the event counters (preemptions per policy,
// swap traffic, chunked prefill activity, paged-KV prefix-cache hits) the
// scheduler accumulates across a run.
//
// Field tables: each metrics struct lists its fields once, in its static
// `for_each_field(visit)`, which calls `visit(name, &Struct::member, ...)`
// per field in declaration order, passing the row's registry keys (and,
// for ServingMetrics, its FleetRule).  Registry publishing, the cluster
// fleet's rollup, the study getters and the bit-identity checks walk these
// tables, so a new field is its declaration plus one table row;
// `serving_rollup_test`'s drift guard fails when a table misses one.

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/units.h"
#include "serving/obs_registry.h"
#include "serving/stats.h"  // percentile math (shared with the registry)

namespace cimtpu::serving {

/// How the cluster fleet (serving/cluster.h) combines a ServingMetrics
/// field over its replicas.
enum class FleetRule {
  kNone,      ///< left at its default (per-replica means; the registry)
  kSum,       ///< summed over replicas; a nested table field by field
  kMax,       ///< the largest replica value
  kRequests,  ///< rollup_requests over the stitched rows (num_requests: all)
  kDerived,   ///< derive_metrics (serving_sim.h), from the rows above
};

/// A ServingMetrics / ClusterMetrics row's registry key per scope (nullptr:
/// not published there): a run's own registry, the cluster fleet's, and
/// the fleet's after replica_key_prefix(i).  A `gated` row publishes only
/// with faults on (ServingMetrics) or disaggregated (ClusterMetrics).
struct FieldKeys {
  const char* engine = nullptr;
  const char* cluster = nullptr;
  const char* replica = nullptr;
  bool gated = false;
};

/// "cluster.replica<i>.", the prefix of replica `i`'s keys.
inline std::string replica_key_prefix(std::size_t replica) {
  return "cluster.replica" + std::to_string(replica) + ".";
}

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

/// Summary of an already ascending-sorted sample [first, last)
/// (sort_sample order).  The ascending sequence of a multiset is unique,
/// so any sample sorted this way summarizes to the same bits.
LatencySummary summarize_sorted_latencies(const double* first,
                                          const double* last);

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

  std::int64_t total_preemptions() const {
    return preemptions_recompute + preemptions_swap;
  }
  std::int64_t total_shed() const {
    return shed_deadline + shed_horizon + shed_fault;
  }
  Bytes total_swap_bytes() const { return swap_out_bytes + swap_in_bytes; }
  /// prefix_hit_tokens / prefix_lookup_tokens; 0 when nothing was looked
  /// up (cache disabled or no tagged requests).
  double prefix_hit_rate() const {
    return prefix_lookup_tokens == 0
               ? 0.0
               : static_cast<double>(prefix_hit_tokens) /
                     static_cast<double>(prefix_lookup_tokens);
  }

  /// `visit(name, &ServingCounters::member, registry_key)` per field.
  /// The fleet sums each one (FleetRule::kSum on ServingMetrics::counters).
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

/// Walks `a` and `b`, two values of a metrics type, side by side through
/// their field tables and calls `visit(path, a_leaf, b_leaf)` on each pair
/// of leaves: numbers, each tenant list's length, and each registry as its
/// JSON.  Paths read like "fault.retries" or "tenants[1].ttft.p99".
template <typename T, typename Visit>
void for_each_leaf_pair(const T& a, const T& b, const std::string& path,
                        Visit&& visit) {
  if constexpr (std::is_arithmetic_v<T>) {
    visit(path, a, b);
  } else if constexpr (std::is_same_v<T, MetricsRegistry>) {
    visit(path, a.to_json(), b.to_json());
  } else if constexpr (std::is_same_v<T, std::vector<TenantMetrics>>) {
    visit(path, a.size(), b.size());
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      for_each_leaf_pair(a[i], b[i], path + "[" + std::to_string(i) + "]",
                         visit);
    }
  } else {
    T::for_each_field([&](const char* name, auto member, auto&&...) {
      for_each_leaf_pair(a.*member, b.*member,
                         path.empty() ? name : path + "." + name, visit);
    });
  }
}

/// True when every table leaf of `a` equals `b`'s (for_each_leaf_pair).
template <typename T>
bool identical_fields(const T& a, const T& b) {
  bool identical = true;
  for_each_leaf_pair(a, b, "", [&](const std::string&, const auto& x,
                                   const auto& y) { identical &= x == y; });
  return identical;
}

}  // namespace cimtpu::serving
