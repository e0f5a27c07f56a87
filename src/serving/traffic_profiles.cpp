#include "serving/traffic_profiles.h"

#include <sstream>
#include <string>

#include "common/status.h"
#include "models/model_zoo.h"

namespace cimtpu::serving {

RequestStreamConfig zipf_chat_stream(std::uint64_t seed,
                                     std::int64_t num_requests,
                                     double arrival_rate,
                                     std::int64_t priority_classes) {
  RequestStreamConfig stream;
  stream.seed = seed;
  stream.num_requests = num_requests;
  stream.arrival_rate = arrival_rate;
  stream.process = ArrivalProcess::kPoisson;
  stream.prompt.kind = LengthDistribution::kZipf;
  stream.prompt.min_len = 16;
  stream.prompt.max_len = 4096;
  stream.output.kind = LengthDistribution::kZipf;
  stream.output.min_len = 4;
  stream.output.max_len = 1024;
  stream.priority_classes = priority_classes;
  return stream;
}

ServingScenario llama7b_baseline_scenario(int chips, ir::DType dtype) {
  ServingScenario scenario;
  scenario.model = models::llama2_7b();
  scenario.model.dtype = dtype;
  scenario.chip_config = arch::tpu_v4i_baseline();
  scenario.scheduler.max_batch = 32;
  scenario.scheduler.max_prefill_batch = 8;
  scenario.chips = chips;
  return scenario;
}

ServingScenario llama7b_pressured_scenario(int chips, ir::DType dtype,
                                           EvictionPolicy policy,
                                           std::int64_t chunk_tokens,
                                           std::int64_t kv_budget_tokens) {
  ServingScenario scenario = llama7b_baseline_scenario(chips, dtype);
  scenario.eviction = policy;
  scenario.scheduler.prefill_chunk_tokens = chunk_tokens;
  scenario.kv_budget_override =
      KvCacheManager::token_bytes(scenario.model) *
      static_cast<double>(kv_budget_tokens);
  return scenario;
}

std::vector<SweepPoint> pressured_policy_grid_points(
    const models::TransformerConfig& model,
    const std::vector<Request>* requests) {
  std::vector<SweepPoint> points;
  for (EvictionPolicy policy :
       {EvictionPolicy::kPreemptNewest, EvictionPolicy::kSwapToHost,
        EvictionPolicy::kPriorityVictim}) {
    for (std::int64_t chunk : {std::int64_t{0}, std::int64_t{512}}) {
      SweepPoint point;
      point.label = "policy=" + eviction_policy_name(policy) +
                    " chunk=" + std::to_string(chunk);
      point.scenario = llama7b_pressured_scenario(
          /*chips=*/1, model.dtype, policy, chunk, kPressuredKvBudgetTokens);
      point.scenario.model = model;
      point.scenario.kv_budget_override =
          KvCacheManager::token_bytes(model) *
          static_cast<double>(kPressuredKvBudgetTokens);
      point.requests = requests;
      points.push_back(std::move(point));
    }
  }
  return points;
}

RequestStreamConfig multi_tenant_pressure_stream(std::uint64_t seed,
                                                 std::int64_t num_requests,
                                                 double arrival_rate,
                                                 std::int64_t num_tenants) {
  RequestStreamConfig stream;
  stream.seed = seed;
  stream.num_requests = num_requests;
  stream.arrival_rate = arrival_rate;
  stream.process = ArrivalProcess::kPoisson;
  stream.prompt.kind = LengthDistribution::kUniform;
  stream.prompt.min_len = 128;
  stream.prompt.max_len = 256;
  stream.output.kind = LengthDistribution::kUniform;
  stream.output.min_len = 64;
  stream.output.max_len = 128;
  stream.num_tenants = num_tenants;
  return stream;
}

ServingScenario multi_tenant_fairness_scenario(ir::DType dtype,
                                               const std::string& admission) {
  ServingScenario scenario = llama7b_pressured_scenario(
      /*chips=*/1, dtype, EvictionPolicy::kPreemptNewest, /*chunk_tokens=*/0,
      kMultiTenantFairnessKvBudgetTokens);
  scenario.scheduler.admission.policy = admission;
  scenario.scheduler.admission.tenant_weights =
      multi_tenant_fairness_weights();
  scenario.max_sim_seconds = kMultiTenantFairnessHorizon;
  return scenario;
}

RequestStreamConfig prefix_chatbot_stream(std::uint64_t seed,
                                          std::int64_t num_requests,
                                          double arrival_rate,
                                          std::int64_t prefix_pool) {
  RequestStreamConfig stream;
  stream.seed = seed;
  stream.num_requests = num_requests;
  stream.arrival_rate = arrival_rate;
  stream.process = ArrivalProcess::kPoisson;
  stream.prompt.kind = LengthDistribution::kZipf;
  stream.prompt.min_len = 16;
  stream.prompt.max_len = 512;
  stream.output.kind = LengthDistribution::kZipf;
  stream.output.min_len = 16;
  stream.output.max_len = 256;
  stream.prefix_pool_size = prefix_pool;
  stream.prefix_len_tokens = kPrefixChatbotPrefixLen;
  return stream;
}

ServingScenario prefix_cache_scenario(ir::DType dtype,
                                      bool enable_prefix_cache,
                                      std::int64_t kv_block_tokens,
                                      std::int64_t kv_budget_tokens) {
  ServingScenario scenario = llama7b_baseline_scenario(/*chips=*/1, dtype);
  scenario.scheduler.kv_block_tokens = kv_block_tokens;
  scenario.scheduler.enable_prefix_cache = enable_prefix_cache;
  scenario.kv_budget_override =
      KvCacheManager::token_bytes(scenario.model) *
      static_cast<double>(kv_budget_tokens);
  return scenario;
}

std::vector<SweepPoint> prefix_cache_grid_points(
    const models::TransformerConfig& model,
    const std::vector<Request>* requests) {
  // Off/on at the canonical block size, plus a larger-block caching-on
  // point so the fragmentation / hit-rate tradeoff is visible on one grid.
  const struct {
    std::int64_t block;
    bool caching;
  } cells[] = {{16, false}, {16, true}, {64, true}};
  std::vector<SweepPoint> points;
  for (const auto& cell : cells) {
    SweepPoint point;
    point.label = "block=" + std::to_string(cell.block) +
                  " prefix_cache=" + (cell.caching ? "on" : "off");
    point.scenario = prefix_cache_scenario(model.dtype, cell.caching,
                                           cell.block);
    point.scenario.model = model;
    point.scenario.kv_budget_override =
        KvCacheManager::token_bytes(model) *
        static_cast<double>(kPrefixCacheKvBudgetTokens);
    point.requests = requests;
    points.push_back(std::move(point));
  }
  return points;
}

std::vector<SweepPoint> multi_tenant_fairness_points(
    const models::TransformerConfig& model,
    const std::vector<Request>* requests) {
  std::vector<SweepPoint> points;
  for (const char* admission : {"fifo", "wfq"}) {
    SweepPoint point;
    point.label = std::string("admission=") + admission;
    point.scenario = multi_tenant_fairness_scenario(model.dtype, admission);
    point.scenario.model = model;
    // Re-derive the budget in the chosen model's own token-bytes (the
    // canonical scenario sized it for llama2-7b).
    point.scenario.kv_budget_override =
        KvCacheManager::token_bytes(model) *
        static_cast<double>(kMultiTenantFairnessKvBudgetTokens);
    point.requests = requests;
    points.push_back(std::move(point));
  }
  return points;
}

RequestStreamConfig slo_chat_stream(std::uint64_t seed,
                                    std::int64_t num_requests,
                                    double arrival_rate) {
  RequestStreamConfig stream = multi_tenant_pressure_stream(
      seed, num_requests, arrival_rate, /*num_tenants=*/1);
  stream.ttft_deadline_s = kSloTtftDeadline;
  stream.tpot_deadline_s = kSloTpotDeadline;
  return stream;
}

ServingScenario slo_scenario(ir::DType dtype, const std::string& admission) {
  ServingScenario scenario = llama7b_pressured_scenario(
      /*chips=*/1, dtype, EvictionPolicy::kPreemptNewest, /*chunk_tokens=*/0,
      kSloKvBudgetTokens);
  // EDF sheds only requests that are provably lost: it drops a request
  // once even an IMMEDIATE first token would miss its TTFT deadline.  The
  // win over FIFO comes purely from not spending prefill on work that can
  // no longer count.
  scenario.scheduler.admission.policy = admission;
  scenario.max_sim_seconds = kSloFrontierHorizon;
  return scenario;
}

ServingSweep slo_frontier_sweep(const models::TransformerConfig& model,
                                std::uint64_t seed) {
  ServingSweep sweep;
  sweep.arrival_rates = slo_frontier_rates();
  sweep.base.scenario = slo_scenario(model.dtype, /*admission=*/"fifo");
  sweep.base.scenario.model = model;
  // Re-derive the budget in the chosen model's own token-bytes (the
  // canonical scenario sized it for llama2-7b).
  sweep.base.scenario.kv_budget_override =
      KvCacheManager::token_bytes(model) *
      static_cast<double>(kSloKvBudgetTokens);
  const std::vector<std::string> admissions = {"fifo", "edf"};
  sweep.axes = {{"admission", admissions,
                 [admissions](SweepPoint& point, std::size_t i) {
                   point.scenario.scheduler.admission.policy = admissions[i];
                 }}};
  sweep.stream =
      slo_chat_stream(seed, kSloFrontierRequests, /*arrival_rate=*/1.0);
  return sweep;
}

std::vector<Request> diurnal_tenant_mix_requests(
    std::uint64_t seed, std::int64_t requests_per_tenant,
    double per_tenant_rate, std::int64_t num_tenants) {
  CIMTPU_CONFIG_CHECK(num_tenants >= 1, "diurnal mix needs >= 1 tenant, got "
                                            << num_tenants);
  constexpr double kTwoPi = 6.283185307179586;
  std::vector<std::vector<Request>> streams;
  streams.reserve(static_cast<std::size_t>(num_tenants));
  for (std::int64_t tenant = 0; tenant < num_tenants; ++tenant) {
    RequestStreamConfig stream = multi_tenant_pressure_stream(
        seed + static_cast<std::uint64_t>(tenant) * 0x9e3779b97f4a7c15ull,
        requests_per_tenant, per_tenant_rate, /*num_tenants=*/1);
    stream.process = ArrivalProcess::kDiurnal;
    stream.diurnal_phase =
        kTwoPi * static_cast<double>(tenant) / static_cast<double>(num_tenants);
    std::vector<Request> requests = generate_requests(stream);
    for (Request& request : requests) {
      request.tenant_id = tenant;
    }
    streams.push_back(std::move(requests));
  }
  return merge_request_traces(streams);
}

ServingScenario fault_storm_scenario(ir::DType dtype, bool recovery) {
  ServingScenario scenario = slo_scenario(dtype, /*admission=*/"edf");
  scenario.max_sim_seconds = kFaultStormHorizon;
  scenario.fault.enabled = true;
  scenario.fault.seed = kFaultStormSeed;
  // A storm, not background noise: stalls cover a meaningful slice of the
  // window, KV losses land about once a second, and the window sees a
  // couple of full restarts — enough that recovery policy, not luck,
  // decides the frontier.  KV losses repair in place from the host shadow
  // (PCIe re-fetch); device failures recompute through backoff
  // re-admission; the degradation detector (serving/fault.h) is armed.
  scenario.fault.stall_rate_per_s = 0.4;
  scenario.fault.kv_loss_rate_per_s = 1.0;
  scenario.fault.device_failure_rate_per_s = 0.05;
  scenario.fault.recovery_enabled = recovery;
  return scenario;
}

ServingSweep fault_storm_sweep(const models::TransformerConfig& model,
                               std::uint64_t seed,
                               const std::vector<double>& fault_rates) {
  ServingSweep sweep;
  sweep.arrival_rates = {10.0};
  sweep.base.scenario = fault_storm_scenario(model.dtype, /*recovery=*/true);
  sweep.base.scenario.model = model;
  sweep.base.scenario.kv_budget_override =
      KvCacheManager::token_bytes(model) *
      static_cast<double>(kSloKvBudgetTokens);
  std::vector<std::string> rate_labels;
  for (double scale : fault_rates) {
    std::ostringstream label;
    label << scale;
    rate_labels.push_back(label.str());
  }
  sweep.axes = {
      {"fault_rate", rate_labels,
       [fault_rates](SweepPoint& point, std::size_t i) {
         // Scale all three fault processes; 0 turns the subsystem off.
         FaultConfig& fault = point.scenario.fault;
         fault.stall_rate_per_s *= fault_rates[i];
         fault.kv_loss_rate_per_s *= fault_rates[i];
         fault.device_failure_rate_per_s *= fault_rates[i];
         if (fault_rates[i] == 0) fault.enabled = false;
       }},
      {"recovery", {"off", "on"}, [](SweepPoint& point, std::size_t i) {
         point.scenario.fault.recovery_enabled = i == 1;
       }}};
  sweep.stream =
      slo_chat_stream(seed, kSloFrontierRequests, /*arrival_rate=*/1.0);
  return sweep;
}

RequestStreamConfig cluster_chatbot_stream(std::uint64_t seed) {
  RequestStreamConfig stream = prefix_chatbot_stream(
      seed, kClusterRouterRequests, kClusterRouterRate, kClusterPrefixPool);
  stream.num_tenants = kClusterTenants;
  return stream;
}

std::vector<SweepPoint> cluster_router_grid_points(
    const models::TransformerConfig& model,
    const std::vector<Request>* requests) {
  std::vector<SweepPoint> points;
  for (const char* policy : cluster_router_policy_order()) {
    SweepPoint point;
    point.label = std::string("router=") + policy;
    point.scenario = prefix_cache_scenario(model.dtype,
                                           /*enable_prefix_cache=*/true);
    point.scenario.model = model;
    // Re-derive the per-replica budget in the chosen model's own
    // token-bytes (the canonical scenario sized it for llama2-7b).
    point.scenario.kv_budget_override =
        KvCacheManager::token_bytes(model) *
        static_cast<double>(kPrefixCacheKvBudgetTokens);
    point.replicas = kClusterReplicas;
    point.router_policy = policy;
    point.requests = requests;
    points.push_back(std::move(point));
  }
  return points;
}

ServingSweep cluster_disaggregation_sweep(
    const models::TransformerConfig& model, std::uint64_t seed) {
  ServingSweep sweep;
  sweep.arrival_rates = cluster_disagg_rates();
  sweep.base.scenario = llama7b_baseline_scenario(/*chips=*/1, model.dtype);
  sweep.base.scenario.model = model;
  sweep.base.replicas = kClusterReplicas;
  sweep.base.prefill_replicas = kClusterPrefillReplicas;
  // Only colocated vs disaggregated varies; the router stays round_robin.
  sweep.axes = {{"disagg", {"off", "on"}, [](SweepPoint& point, std::size_t i) {
                   point.disaggregated = i == 1;
                 }}};
  sweep.stream =
      zipf_chat_stream(seed, kClusterDisaggRequests, /*arrival_rate=*/1.0);
  return sweep;
}

}  // namespace cimtpu::serving
