#pragma once
// Canonical traffic profiles and deployments shared by the serving
// studies (serving/studies.h, run by serving_traffic) and the
// golden-metrics regression tests: one definition, so the perf-trajectory
// baseline (serving_traffic --bench-json) and the pinned goldens always
// describe the same workload the demo runs.

#include <cstdint>
#include <vector>

#include "serving/serving_sim.h"
#include "serving/sweep.h"

namespace cimtpu::serving {

/// Chat-style Zipf traffic: prompts 16..4096 tokens, outputs 4..1024
/// tokens, both Zipf-tailed with kZipfAlpha (short requests common, a
/// heavy tail of long ones).  `priority_classes` > 1 additionally tags
/// each request with a uniform priority class (for kPriorityVictim) from
/// a decoupled rng stream — arrivals and lengths stay bit-identical.
RequestStreamConfig zipf_chat_stream(std::uint64_t seed,
                                     std::int64_t num_requests,
                                     double arrival_rate,
                                     std::int64_t priority_classes = 1);

/// Reference serving deployment: llama2-7b (fits one chip's HBM at INT8
/// and INT4) on the TPUv4i baseline, max batch 32, prefill batch 8.
ServingScenario llama7b_baseline_scenario(int chips, ir::DType dtype);

/// The device KV budget (cached tokens) of the canonical policy grid:
/// 8000 tokens comfortably admit the largest zipf_chat request (4096
/// prompt + 1024 output) while forcing heavy eviction churn at max_batch
/// 32.
constexpr std::int64_t kPressuredKvBudgetTokens = 8000;

/// The baseline deployment under deliberate KV pressure: the device KV
/// budget is capped at `kv_budget_tokens` cached tokens so preemption
/// policies actually fire, with `policy` selecting the mechanism and
/// `chunk_tokens` the chunked-prefill budget (0 = whole-prompt prefill).
ServingScenario llama7b_pressured_scenario(
    int chips, ir::DType dtype, EvictionPolicy policy,
    std::int64_t chunk_tokens,
    std::int64_t kv_budget_tokens = kPressuredKvBudgetTokens);

/// The canonical pressured policy study as sweep points: every eviction
/// policy x chunked prefill {off, 512} on one chip, `model` (any dtype)
/// under a kPressuredKvBudgetTokens device budget, all replaying
/// `*requests` (caller-owned, must outlive the sweep), in policy-major,
/// chunk-minor order.  The policy study's grid.
std::vector<SweepPoint> pressured_policy_grid_points(
    const models::TransformerConfig& model,
    const std::vector<Request>* requests);

/// Canonical multi-tenant overload stream for fairness studies: uniform
/// lengths (prompts 128..256, outputs 64..128 — low variance, so tenant
/// goodput ratios estimate admission shares tightly) at `arrival_rate`
/// req/s split uniformly across `num_tenants` tenants from the decoupled
/// tenant rng stream.  Shared by the fairness study and the WFQ share
/// tests.
RequestStreamConfig multi_tenant_pressure_stream(std::uint64_t seed,
                                                 std::int64_t num_requests,
                                                 double arrival_rate,
                                                 std::int64_t num_tenants);

/// The per-tenant admission weights (index = tenant id), simulated-time
/// horizon and device KV budget (cached tokens) of the canonical fairness
/// deployment.
inline const std::vector<double>& multi_tenant_fairness_weights() {
  static const std::vector<double> weights = {3.0, 1.0};
  return weights;
}
constexpr Seconds kMultiTenantFairnessHorizon = 30.0;
constexpr std::int64_t kMultiTenantFairnessKvBudgetTokens = 2000;

/// The canonical 2-tenant fairness deployment: the pressured llama2-7b
/// scenario (kMultiTenantFairnessKvBudgetTokens) with the 3:1
/// multi_tenant_fairness_weights() and a kMultiTenantFairnessHorizon
/// simulated-time cut, so the device stays overloaded for the whole
/// measured window and per-tenant goodput reflects the admission policy's
/// share enforcement rather than the traffic mix.  `admission` is a
/// registry name ("fifo" for the head-of-line baseline, "wfq" for
/// weighted fair queueing).
ServingScenario multi_tenant_fairness_scenario(ir::DType dtype,
                                               const std::string& admission);

/// The canonical fairness study as sweep points: one
/// multi_tenant_fairness_scenario per admission policy in {"fifo",
/// "wfq"}, at `model` (any dtype, budget re-derived in its token-bytes),
/// all replaying `*requests` (caller-owned, must outlive the sweep).  The
/// fairness study's grid.
std::vector<SweepPoint> multi_tenant_fairness_points(
    const models::TransformerConfig& model,
    const std::vector<Request>* requests);

/// The pool size / prefix length the canonical chatbot stream uses.  The
/// prefix length is deliberately NOT a multiple of the studied block
/// sizes (16, 64), so the shared partial tail block — and its
/// copy-on-write path — is exercised on every full prefix hit.
constexpr std::int64_t kPrefixChatbotPool = 4;
constexpr std::int64_t kPrefixChatbotPrefixLen = 1000;

/// Canonical prefix-heavy chatbot stream for paged-KV prefix-cache
/// studies: every request opens with one of `prefix_pool` shared
/// kPrefixChatbotPrefixLen-token system prompts (drawn from the decoupled
/// fourth rng stream), followed by a Zipf user turn of 16..512 tokens and
/// a Zipf 16..256-token reply — the workload class where cross-request
/// prefix reuse dominates prefill work.  Shared by the prefix-cache study
/// and the prefix tests.
RequestStreamConfig prefix_chatbot_stream(
    std::uint64_t seed, std::int64_t num_requests, double arrival_rate,
    std::int64_t prefix_pool = kPrefixChatbotPool);

/// The device KV budget (cached tokens) of the canonical paged-KV
/// deployment: it admits the prefix pool plus a working set, ~1/4 of HBM
/// headroom, tight enough that block reuse matters.
constexpr std::int64_t kPrefixCacheKvBudgetTokens = 20000;

/// The canonical paged-KV deployment for the chatbot stream: the llama2-7b
/// baseline with `kv_block_tokens`-sized pages, prefix caching switched by
/// `enable_prefix_cache`, under a `kv_budget_tokens` device budget.
ServingScenario prefix_cache_scenario(
    ir::DType dtype, bool enable_prefix_cache,
    std::int64_t kv_block_tokens = 16,
    std::int64_t kv_budget_tokens = kPrefixCacheKvBudgetTokens);

/// The canonical prefix-cache study as sweep points: caching off/on at
/// block size 16, plus caching on at block 64 (fragmentation tradeoff),
/// all replaying `*requests` (caller-owned, must outlive the sweep).
/// The prefix-cache study's grid.
std::vector<SweepPoint> prefix_cache_grid_points(
    const models::TransformerConfig& model,
    const std::vector<Request>* requests);

/// The deadlines / horizon / trace size / device KV budget the canonical
/// SLO frontier uses.  TTFT 2 s / TPOT 100 ms are interactive-chat targets
/// (DistServe-style); the 30-simulated-second horizon keeps the overloaded
/// cells bounded; 4000 cached tokens are tight enough that queueing delay,
/// not compute, is what blows deadlines under overload.
constexpr Seconds kSloTtftDeadline = 2.0;
constexpr Seconds kSloTpotDeadline = 0.1;
constexpr Seconds kSloFrontierHorizon = 30.0;
constexpr std::int64_t kSloFrontierRequests = 400;
constexpr std::int64_t kSloKvBudgetTokens = 4000;

/// The arrival rates the canonical SLO frontier sweeps (req/s): from
/// comfortably served through saturation to heavy overload, where
/// admission control separates the policies.
inline const std::vector<double>& slo_frontier_rates() {
  static const std::vector<double> rates = {4.0, 10.0, 25.0};
  return rates;
}

/// Canonical deadline-carrying chat stream for SLO studies: the
/// multi-tenant pressure lengths (uniform prompts 128..256, outputs
/// 64..128 — low variance, so attainment differences reflect scheduling,
/// not length luck) with every request carrying kSloTtftDeadline /
/// kSloTpotDeadline, jittered by kDeadlineJitter from the decoupled fifth
/// rng stream.  Shared by the SLO frontier study and the EDF tests.
RequestStreamConfig slo_chat_stream(std::uint64_t seed,
                                    std::int64_t num_requests,
                                    double arrival_rate);

/// The canonical SLO deployment: the pressured llama2-7b scenario
/// (kSloKvBudgetTokens) run under `admission` ("fifo" for the head-of-line
/// baseline, "edf" for deadline-driven admission with shedding) to a
/// kSloFrontierHorizon simulated-time cut.
ServingScenario slo_scenario(ir::DType dtype, const std::string& admission);

/// The canonical SLO frontier as a ready-to-run sweep grid: arrival rate
/// (slo_frontier_rates) x admission {"fifo", "edf"} over the slo_scenario
/// deployment replaying slo_chat_stream traffic (one shared trace per
/// rate, generated by run_serving_sweep), in rate-major order.  The SLO
/// frontier study's grid.
ServingSweep slo_frontier_sweep(const models::TransformerConfig& model,
                                std::uint64_t seed);

/// Production-shaped diurnal multi-tenant mix: one kDiurnal stream per
/// tenant, peaks staggered evenly around the day/night cycle (tenant t
/// gets phase 2*pi*t/num_tenants — time-zone-offset tenant populations),
/// merged into one dense-id trace sorted by arrival.  Each per-tenant
/// stream uses the multi-tenant pressure lengths, the kDiurnalPeriodSeconds
/// cycle at kDiurnalAmplitude, and a decoupled seed, so adding a tenant
/// never perturbs the others' traffic.
std::vector<Request> diurnal_tenant_mix_requests(std::uint64_t seed,
                                                 std::int64_t requests_per_tenant,
                                                 double per_tenant_rate,
                                                 std::int64_t num_tenants);

/// The fault seed / horizon the canonical fault storm uses.  The seed is
/// fixed (and distinct from workload seeds) so the pinned resilience test
/// and the fault-storm study replay the SAME storm.
constexpr std::uint64_t kFaultStormSeed = 1234;
constexpr Seconds kFaultStormHorizon = 30.0;

/// The canonical fault-storm deployment (schema-v8 "resilience" block):
/// the SLO scenario (EDF admission, kFaultStormHorizon) under a sustained
/// multi-failure storm — transient stalls, ~1/s KV-block losses restored
/// from the host shadow when they fit, and occasional full device
/// restarts — with the degradation detector armed.  `recovery` toggles
/// FaultConfig::recovery_enabled: the on/off pair IS the resilience
/// frontier (recovery-on strictly wins availability and SLO goodput on
/// the pinned storm).
ServingScenario fault_storm_scenario(ir::DType dtype, bool recovery);

/// The canonical fault-storm study as a ready-to-run sweep: 10 req/s of
/// slo_chat_stream traffic over the fault_storm_scenario deployment
/// (kSloKvBudgetTokens in `model`'s token-bytes), with a "fault_rate"
/// axis scaling the storm's three process rates by each of `fault_rates`
/// (0 disables the subsystem) and a "recovery" axis {off, on}.  The
/// fault-storm study's grid ("resilience" in BENCH_serving.json).  A
/// cell's scale reads back as its fault.kv_loss_rate_per_s over the base
/// scenario's.
ServingSweep fault_storm_sweep(const models::TransformerConfig& model,
                               std::uint64_t seed,
                               const std::vector<double>& fault_rates);

/// The deployment shape the canonical cluster studies (schema-v9
/// "cluster" block) use: 4 single-chip replicas, with 1 of them split off
/// for prefill in the disaggregated cells.  The router study's prefix
/// pool is 4x the replica count, so affinity routing has real families to
/// keep together while round-robin necessarily scatters each family
/// across every replica's cache.
constexpr int kClusterReplicas = 4;
constexpr int kClusterPrefillReplicas = 1;
constexpr std::int64_t kClusterPrefixPool = 16;
constexpr std::int64_t kClusterTenants = 8;
constexpr std::int64_t kClusterRouterRequests = 400;
constexpr double kClusterRouterRate = 24.0;
constexpr std::int64_t kClusterDisaggRequests = 800;

/// The router policies the canonical router study compares, in row order
/// (round_robin first — the baseline the affinity pin compares against).
inline const std::vector<const char*>& cluster_router_policy_order() {
  static const std::vector<const char*> order = {
      "round_robin", "least_loaded", "prefix_affinity", "tenant_sticky"};
  return order;
}

/// The arrival rates the canonical disaggregation study sweeps (req/s):
/// the top rate overloads 4 colocated replicas enough that decode-batch
/// interference and KV admission stalls dominate colocated TTFT — the
/// regime prefill/decode separation is for.
inline const std::vector<double>& cluster_disagg_rates() {
  static const std::vector<double> rates = {8.0, 16.0, 24.0};
  return rates;
}

/// Canonical cluster routing traffic: the prefix-heavy chatbot stream at
/// a kClusterPrefixPool-prompt pool, additionally tagged with
/// kClusterTenants tenants from the decoupled tenant rng stream (so
/// tenant_sticky has real tenants to pin; arrivals, lengths, and prefix
/// assignments stay bit-identical to the untagged stream).
RequestStreamConfig cluster_chatbot_stream(std::uint64_t seed);

/// The canonical router study as sweep points: one kClusterReplicas-way
/// cluster cell per policy in cluster_router_policy_order(), every
/// replica running the paged-KV prefix-caching deployment
/// (prefix_cache_scenario, caching ON), all replaying `*requests`
/// (caller-owned, must outlive the sweep).  The cluster router study's
/// grid.
std::vector<SweepPoint> cluster_router_grid_points(
    const models::TransformerConfig& model,
    const std::vector<Request>* requests);

/// The canonical disaggregation study as a ready-to-run sweep: arrival
/// rate (cluster_disagg_rates) x {colocated, disaggregated} over
/// kClusterReplicas replicas of the llama2-7b baseline replaying
/// zipf-chat traffic (one shared trace per rate).  In the disaggregated
/// cells kClusterPrefillReplicas replicas run prompts only and stream
/// finished KV to the remaining decode replicas over the modeled ICI
/// fabric.  The disaggregation study's grid.
ServingSweep cluster_disaggregation_sweep(
    const models::TransformerConfig& model, std::uint64_t seed);

}  // namespace cimtpu::serving
