#pragma once
// EXPECT_EQ on every simulated ServingMetrics field, doubles included: the
// claims these tests make (tracing on/off, sweep vs serial, shared vs
// private cost cache) are bit-identity, not closeness.  Only the
// wall-clock fields sim_wall_seconds / steps_per_second are left out: they
// measure the host, not the simulation.  Time-series samples are left out
// too: they exist only when sampling is on.

#include <gtest/gtest.h>

#include "serving/serving_sim.h"

namespace cimtpu::serving {

inline void expect_identical_summary(const LatencySummary& a,
                                     const LatencySummary& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p95, b.p95);
  EXPECT_EQ(a.p99, b.p99);
  EXPECT_EQ(a.max, b.max);
}

inline void expect_identical_metrics(const ServingMetrics& a,
                                     const ServingMetrics& b) {
  EXPECT_EQ(a.chips, b.chips);
  EXPECT_EQ(a.num_requests, b.num_requests);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.generated_tokens, b.generated_tokens);
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.prefill_steps, b.prefill_steps);
  EXPECT_EQ(a.decode_steps, b.decode_steps);
  EXPECT_EQ(a.preemptions, b.preemptions);

  const ServingCounters& x = a.counters;
  const ServingCounters& y = b.counters;
  EXPECT_EQ(x.preemptions_recompute, y.preemptions_recompute);
  EXPECT_EQ(x.preemptions_swap, y.preemptions_swap);
  EXPECT_EQ(x.swap_ins, y.swap_ins);
  EXPECT_EQ(x.swap_out_bytes, y.swap_out_bytes);
  EXPECT_EQ(x.swap_in_bytes, y.swap_in_bytes);
  EXPECT_EQ(x.chunked_prefill_steps, y.chunked_prefill_steps);
  EXPECT_EQ(x.prefix_lookup_tokens, y.prefix_lookup_tokens);
  EXPECT_EQ(x.prefix_hit_tokens, y.prefix_hit_tokens);
  EXPECT_EQ(x.prefix_shared_blocks, y.prefix_shared_blocks);
  EXPECT_EQ(x.prefix_cow_blocks, y.prefix_cow_blocks);
  EXPECT_EQ(x.shed_deadline, y.shed_deadline);
  EXPECT_EQ(x.shed_horizon, y.shed_horizon);
  EXPECT_EQ(x.shed_fault, y.shed_fault);

  EXPECT_EQ(a.prefix_hit_rate, b.prefix_hit_rate);
  EXPECT_EQ(a.kv_internal_fragmentation, b.kv_internal_fragmentation);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.sim_end_seconds, b.sim_end_seconds);
  expect_identical_summary(a.ttft, b.ttft);
  expect_identical_summary(a.tpot, b.tpot);
  expect_identical_summary(a.e2e, b.e2e);
  EXPECT_EQ(a.goodput_tokens_per_second, b.goodput_tokens_per_second);

  EXPECT_EQ(a.slo_met, b.slo_met);
  EXPECT_EQ(a.slo_attainment, b.slo_attainment);
  EXPECT_EQ(a.slo_goodput_tokens_per_second, b.slo_goodput_tokens_per_second);

  EXPECT_EQ(a.availability, b.availability);
  EXPECT_EQ(a.mttr_seconds, b.mttr_seconds);
  EXPECT_EQ(a.wasted_recompute_tokens, b.wasted_recompute_tokens);
  EXPECT_EQ(a.retries_total, b.retries_total);
  EXPECT_EQ(a.fault.stalls, b.fault.stalls);
  EXPECT_EQ(a.fault.kv_losses, b.fault.kv_losses);
  EXPECT_EQ(a.fault.device_failures, b.fault.device_failures);
  EXPECT_EQ(a.fault.host_restores, b.fault.host_restores);
  EXPECT_EQ(a.fault.host_restore_bytes, b.fault.host_restore_bytes);
  EXPECT_EQ(a.fault.retries, b.fault.retries);
  EXPECT_EQ(a.fault.dropped, b.fault.dropped);
  EXPECT_EQ(a.fault.wasted_recompute_tokens, b.fault.wasted_recompute_tokens);
  EXPECT_EQ(a.fault.degrade_enters, b.fault.degrade_enters);
  EXPECT_EQ(a.fault.degrade_exits, b.fault.degrade_exits);

  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    const TenantMetrics& s = a.tenants[i];
    const TenantMetrics& t = b.tenants[i];
    EXPECT_EQ(s.tenant_id, t.tenant_id);
    EXPECT_EQ(s.weight, t.weight);
    EXPECT_EQ(s.num_requests, t.num_requests);
    EXPECT_EQ(s.completed, t.completed);
    EXPECT_EQ(s.generated_tokens, t.generated_tokens);
    expect_identical_summary(s.ttft, t.ttft);
    expect_identical_summary(s.e2e, t.e2e);
    EXPECT_EQ(s.goodput_tokens_per_second, t.goodput_tokens_per_second);
  }
  EXPECT_EQ(a.jain_fairness, b.jain_fairness);

  EXPECT_EQ(a.mxu_energy, b.mxu_energy);
  EXPECT_EQ(a.total_energy, b.total_energy);
  EXPECT_EQ(a.energy_per_token, b.energy_per_token);
  EXPECT_EQ(a.mxu_utilization, b.mxu_utilization);
  // Cache stats count against the run's own view of the cache, so they too
  // are independent of sharing and threading.
  EXPECT_EQ(a.cost_cache_entries, b.cost_cache_entries);
  EXPECT_EQ(a.cost_cache_hits, b.cost_cache_hits);
  EXPECT_EQ(a.cost_cache_misses, b.cost_cache_misses);
  EXPECT_EQ(a.cost_cache_occupancy, b.cost_cache_occupancy);
  // The end-of-run registry is fed only by simulated state, so its whole
  // JSON export must match byte for byte too.
  EXPECT_EQ(a.registry.to_json(), b.registry.to_json());
}

}  // namespace cimtpu::serving
