// Cluster-scale serving wall: router-policy ordering and stickiness,
// unknown-name diagnostics, the N=1 + round_robin bit-identity
// contract against the single-engine path, colocated multi-replica
// conservation, prefix-affinity routing beating round-robin on
// cluster-wide prefix hit rate, disaggregated prefill/decode KV-transfer
// reconciliation against the IciFabric cost model, the tensor-parallel
// serving dispatch, IciFabric edge cases, and 1-vs-4-thread sweep
// bit-identity for cluster cells.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "arch/chip.h"
#include "common/status.h"
#include "expect_identical_metrics.h"
#include "mem/link.h"
#include "models/model_zoo.h"
#include "serving/cluster.h"
#include "serving/kv_cache_manager.h"
#include "serving/scheduler.h"
#include "serving/serving_sim.h"
#include "serving/sweep.h"
#include "serving/traffic_profiles.h"

namespace cimtpu::serving {
namespace {

Request make_request(std::int64_t id, Seconds arrival,
                     std::int64_t tenant_id = 0, std::int64_t prefix_id = -1) {
  Request request;
  request.id = id;
  request.arrival_time = arrival;
  request.prompt_len = 64;
  request.output_len = 8;
  request.tenant_id = tenant_id;
  request.prefix_id = prefix_id;
  return request;
}

std::vector<ReplicaLoad> loads_of(std::initializer_list<std::int64_t> tokens) {
  std::vector<ReplicaLoad> loads;
  for (std::int64_t t : tokens) loads.push_back(ReplicaLoad{t});
  return loads;
}

// --- Router policy lookup ----------------------------------------------------

TEST(RouterRegistryTest, UnknownNameListsRegisteredPolicies) {
  // The lookup knows exactly the four built-ins: each name
  // constructs a policy, and any other name throws listing every built-in.
  const std::vector<std::string> builtins = {
      "least_loaded", "prefix_affinity", "round_robin", "tenant_sticky"};
  for (const std::string& name : builtins) {
    EXPECT_NE(make_router_policy(name, 2), nullptr) << name;
  }
  try {
    make_router_policy("nope", 2);
    FAIL() << "unknown router policy must throw";
  } catch (const ConfigError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("'nope'"), std::string::npos);
    for (const std::string& name : builtins) {
      EXPECT_NE(message.find(name), std::string::npos) << name;
    }
  }
}

// --- Builtin policies --------------------------------------------------------

TEST(RouterPolicyTest, RoundRobinCyclesReplicas) {
  auto policy = make_router_policy("round_robin", 3);
  const auto loads = loads_of({100, 0, 50});  // loads must be ignored
  for (int expected : {0, 1, 2, 0, 1, 2, 0}) {
    EXPECT_EQ(policy->route(make_request(0, 0.0), loads), expected);
  }
}

TEST(RouterPolicyTest, LeastLoadedPicksMinimumTiesToLowestIndex) {
  auto policy = make_router_policy("least_loaded", 4);
  EXPECT_EQ(policy->route(make_request(0, 0.0), loads_of({30, 10, 20, 40})), 1);
  EXPECT_EQ(policy->route(make_request(1, 0.0), loads_of({5, 5, 5, 5})), 0);
  EXPECT_EQ(policy->route(make_request(2, 0.0), loads_of({9, 3, 3, 8})), 1);
}

TEST(RouterPolicyTest, PrefixAffinitySticksToFirstPick) {
  auto policy = make_router_policy("prefix_affinity", 3);
  // First sight of prefix 7: least-loaded fallback picks replica 2.
  EXPECT_EQ(policy->route(make_request(0, 0.0, 0, 7), loads_of({9, 9, 1})), 2);
  // Same prefix sticks to replica 2 even when its load is now worst.
  EXPECT_EQ(policy->route(make_request(1, 1.0, 0, 7), loads_of({1, 1, 99})),
            2);
  // Untagged requests always fall back to least-loaded.
  EXPECT_EQ(policy->route(make_request(2, 2.0, 0, -1), loads_of({1, 0, 99})),
            1);
  // A different prefix makes its own sticky pick.
  EXPECT_EQ(policy->route(make_request(3, 3.0, 0, 8), loads_of({0, 5, 99})),
            0);
  EXPECT_EQ(policy->route(make_request(4, 4.0, 0, 8), loads_of({77, 0, 0})),
            0);
}

TEST(RouterPolicyTest, TenantStickyAssignsFirstSeenRoundRobin) {
  auto policy = make_router_policy("tenant_sticky", 2);
  const auto loads = loads_of({0, 0});
  EXPECT_EQ(policy->route(make_request(0, 0.0, /*tenant=*/5), loads), 0);
  EXPECT_EQ(policy->route(make_request(1, 1.0, /*tenant=*/9), loads), 1);
  EXPECT_EQ(policy->route(make_request(2, 2.0, /*tenant=*/5), loads), 0);
  EXPECT_EQ(policy->route(make_request(3, 3.0, /*tenant=*/9), loads), 1);
  EXPECT_EQ(policy->route(make_request(4, 4.0, /*tenant=*/11), loads), 0);
}

// --- N=1 bit-identity --------------------------------------------------------

TEST(ClusterSingleReplicaTest, BitIdenticalToSingleEnginePath) {
  const std::vector<Request> requests =
      generate_requests(zipf_chat_stream(/*seed=*/42, 300, 20.0));
  const ServingScenario scenario =
      llama7b_baseline_scenario(1, ir::DType::kInt4);

  const ServingMetrics single = run_serving(scenario, requests);

  ClusterConfig config;
  config.base = scenario;
  config.replicas = {ReplicaSpec{}};
  config.router_policy = "round_robin";
  const ClusterMetrics cluster = run_serving_cluster(config, requests);

  ASSERT_EQ(cluster.replica_metrics.size(), 1u);
  // Exact equality of every simulated field, registry included — this is
  // the golden-pin contract.
  expect_identical_metrics(cluster.replica_metrics[0], single);

  // The stitched cluster view agrees with the lone replica.
  EXPECT_EQ(cluster.fleet.registry.counter_or_zero("cluster.replicas"), 1);
  EXPECT_EQ(cluster.fleet.completed, single.completed);
  EXPECT_EQ(cluster.fleet.generated_tokens, single.generated_tokens);
  EXPECT_EQ(cluster.fleet.makespan, single.makespan);
  EXPECT_EQ(cluster.fleet.ttft.p99, single.ttft.p99);
  EXPECT_EQ(cluster.fleet.e2e.p99, single.e2e.p99);
  EXPECT_EQ(cluster.kv_transfer_count, 0);
  // The fleet's request rollup runs over the lone replica's timelines, so
  // every field it writes equals the engine's own rollup.
  const ServingMetrics& fleet = cluster.fleet;
  expect_identical_field(fleet.ttft, single.ttft, "ttft");
  expect_identical_field(fleet.tpot, single.tpot, "tpot");
  expect_identical_field(fleet.e2e, single.e2e, "e2e");
  EXPECT_EQ(fleet.slo_met, single.slo_met);
  EXPECT_EQ(fleet.slo_attainment, single.slo_attainment);
  EXPECT_EQ(fleet.availability, single.availability);
  EXPECT_EQ(fleet.goodput_tokens_per_second, single.goodput_tokens_per_second);
  EXPECT_EQ(fleet.slo_goodput_tokens_per_second,
            single.slo_goodput_tokens_per_second);
  expect_identical_field(fleet.tenants, single.tenants, "tenants");
  EXPECT_EQ(fleet.jain_fairness, single.jain_fairness);
}

TEST(ClusterSloGoodputTest, FlattenedCellsCarrySloGoodput) {
  // Deadline-carrying traffic past one replica's capacity, so some
  // completions miss their deadlines and SLO goodput < goodput.
  const std::vector<Request> requests =
      generate_requests(slo_chat_stream(/*seed=*/42, 300, 25.0));
  const ServingScenario scenario =
      llama7b_baseline_scenario(1, ir::DType::kInt4);
  const ServingMetrics single = run_serving(scenario, requests);
  ASSERT_GT(single.slo_goodput_tokens_per_second, 0);
  ASSERT_LT(single.slo_goodput_tokens_per_second,
            single.goodput_tokens_per_second);

  ClusterConfig config;
  config.base = scenario;
  config.replicas = {ReplicaSpec{}};
  config.router_policy = "round_robin";
  const ServingMetrics one =
      flatten_cluster_metrics(run_serving_cluster(config, requests));
  EXPECT_EQ(one.slo_goodput_tokens_per_second,
            single.slo_goodput_tokens_per_second);

  config.replicas.assign(4, ReplicaSpec{});
  const ServingMetrics four =
      flatten_cluster_metrics(run_serving_cluster(config, requests));
  EXPECT_GT(four.slo_goodput_tokens_per_second, 0);
  EXPECT_LE(four.slo_goodput_tokens_per_second,
            four.goodput_tokens_per_second);
}

TEST(ClusterFlattenTest, SumsEveryCounterAndFaultStatAcrossReplicas) {
  // Two replicas under the fault storm: both record faults, retries and
  // restores, and the flattened cell must report their sums.
  const std::vector<Request> requests =
      generate_requests(slo_chat_stream(/*seed=*/42, 300, 20.0));
  ClusterConfig config;
  config.base = fault_storm_scenario(ir::DType::kInt4, /*recovery=*/true,
                                     /*horizon_seconds=*/15.0);
  config.replicas.assign(2, ReplicaSpec{});
  config.router_policy = "round_robin";
  ClusterMetrics cluster = run_serving_cluster(config, requests);
  const std::vector<ServingMetrics> replicas = cluster.replica_metrics;
  ASSERT_EQ(replicas.size(), 2u);
  for (const ServingMetrics& replica : replicas) {
    ASSERT_GT(replica.fault.kv_losses, 0);
    ASSERT_GT(replica.fault.retries, 0);
  }
  const ServingMetrics flat = flatten_cluster_metrics(std::move(cluster));

  FaultStats::for_each_field([&](const char* name, auto member, const char*) {
    EXPECT_EQ(flat.fault.*member,
              replicas[0].fault.*member + replicas[1].fault.*member)
        << name;
  });
  ServingCounters::for_each_field(
      [&](const char* name, auto member, const char*) {
        EXPECT_EQ(flat.counters.*member,
                  replicas[0].counters.*member + replicas[1].counters.*member)
            << name;
      });
  // A mean over repairs cannot be summed; flattening leaves it at 0.
  EXPECT_EQ(flat.mttr_seconds, 0);
}

TEST(ClusterShedTest, HorizonCutsCountAsShed) {
  // A 15 s window cuts requests off on both replicas, with the fault storm
  // on and off.  Every original request that arrived either completed or
  // was shed, and the cluster's shed count is the replicas' own (deadline,
  // horizon and fault sheds together).
  const std::vector<Request> requests =
      generate_requests(slo_chat_stream(/*seed=*/42, 300, 20.0));
  for (const bool faults : {true, false}) {
    SCOPED_TRACE(faults ? "faults on" : "faults off");
    ClusterConfig config;
    config.base = fault_storm_scenario(ir::DType::kInt4, /*recovery=*/true,
                                       /*horizon_seconds=*/15.0);
    config.base.fault.enabled = faults;
    config.replicas.assign(2, ReplicaSpec{});
    config.router_policy = "round_robin";
    const ClusterMetrics cluster = run_serving_cluster(config, requests);
    std::int64_t replica_shed = 0, horizon_cuts = 0;
    for (const ServingMetrics& replica : cluster.replica_metrics) {
      replica_shed += replica.counters.total_shed();
      horizon_cuts += replica.counters.shed_horizon;
    }
    ASSERT_GT(horizon_cuts, 0);
    EXPECT_EQ(cluster.arrived, cluster.fleet.completed + cluster.shed);
    EXPECT_EQ(cluster.shed, replica_shed);
    EXPECT_EQ(cluster.fleet.registry.counter_or_zero("cluster.shed"),
              cluster.shed);
  }
}

TEST(ClusterSingleReplicaTest, UnknownRouterPolicyFailsAtOneReplicaToo) {
  ClusterConfig config;
  config.base = llama7b_baseline_scenario(1, ir::DType::kInt4);
  config.router_policy = "bogus";
  EXPECT_THROW(run_serving_cluster(config, {}), ConfigError);
}

// --- Colocated multi-replica -------------------------------------------------

TEST(ClusterColocatedTest, RequestsConserveAcrossReplicas) {
  const std::vector<Request> requests =
      generate_requests(zipf_chat_stream(/*seed=*/7, 300, 30.0));
  ClusterConfig config;
  config.base = llama7b_baseline_scenario(1, ir::DType::kInt4);
  config.replicas.assign(4, ReplicaSpec{});
  config.router_policy = "round_robin";
  const ClusterMetrics cluster = run_serving_cluster(config, requests);

  EXPECT_EQ(cluster.fleet.registry.counter_or_zero("cluster.replicas"), 4);
  EXPECT_EQ(cluster.fleet.chips, 4);
  ASSERT_EQ(cluster.replica_metrics.size(), 4u);
  std::int64_t replica_completed = 0, replica_tokens = 0;
  for (const ServingMetrics& replica : cluster.replica_metrics) {
    EXPECT_GT(replica.completed, 0);  // round robin spreads everyone work
    replica_completed += replica.completed;
    replica_tokens += replica.generated_tokens;
  }
  EXPECT_EQ(replica_completed, 300);
  EXPECT_EQ(cluster.fleet.completed, 300);
  EXPECT_EQ(cluster.arrived, 300);
  EXPECT_EQ(cluster.shed, 0);
  EXPECT_EQ(cluster.fleet.generated_tokens, replica_tokens);
  EXPECT_EQ(cluster.fleet.ttft.count, 300);
  EXPECT_EQ(cluster.fleet.e2e.count, 300);
  EXPECT_GT(cluster.jain_across_replicas, 0.9);  // RR is near-even
  EXPECT_LE(cluster.jain_across_replicas, 1.0);
  EXPECT_EQ(cluster.replica_utilization.size(), 4u);
  EXPECT_EQ(cluster.kv_transfer_count, 0);  // colocated: nothing streams
  const std::string registry_json = cluster.fleet.registry.to_json();
  EXPECT_NE(registry_json.find("cluster.replicas"), std::string::npos);
  EXPECT_NE(registry_json.find("cluster.replica3.utilization"),
            std::string::npos);
}

TEST(ClusterColocatedTest, FourReplicasBeatOneOnOverloadedTraffic) {
  const std::vector<Request> requests =
      generate_requests(zipf_chat_stream(/*seed=*/13, 240, 40.0));
  ClusterConfig one;
  one.base = llama7b_baseline_scenario(1, ir::DType::kInt4);
  ClusterConfig four = one;
  four.replicas.assign(4, ReplicaSpec{});
  four.router_policy = "least_loaded";
  const ClusterMetrics m1 = run_serving_cluster(one, requests);
  const ClusterMetrics m4 = run_serving_cluster(four, requests);
  EXPECT_EQ(m4.fleet.completed, m1.fleet.completed);
  // 4x capacity must cut tail latency
  EXPECT_LT(m4.fleet.e2e.p99, m1.fleet.e2e.p99);
  EXPECT_GT(m4.fleet.goodput_tokens_per_second,
            m1.fleet.goodput_tokens_per_second);
}

TEST(ClusterColocatedTest, PrefixAffinityBeatsRoundRobinOnHitRate) {
  // A 16-prompt prefix pool scattered over 4 replicas: round robin sprays
  // each family across every cache, affinity keeps each family warm on
  // one replica — the cluster-wide hit rate must show it.
  const std::vector<Request> requests = generate_requests(
      prefix_chatbot_stream(/*seed=*/11, 400, 24.0, /*prefix_pool=*/16));
  ClusterConfig config;
  config.base = prefix_cache_scenario(ir::DType::kInt4,
                                      /*enable_prefix_cache=*/true);
  config.replicas.assign(4, ReplicaSpec{});
  config.router_policy = "round_robin";
  const ClusterMetrics rr = run_serving_cluster(config, requests);
  config.router_policy = "prefix_affinity";
  const ClusterMetrics affinity = run_serving_cluster(config, requests);

  EXPECT_GT(rr.fleet.prefix_hit_rate, 0.0);  // even scattered, some hits land
  EXPECT_GT(affinity.fleet.prefix_hit_rate, rr.fleet.prefix_hit_rate);
  EXPECT_EQ(affinity.fleet.completed, rr.fleet.completed);
}

// --- Disaggregated prefill/decode --------------------------------------------

ClusterConfig disaggregated_config(int prefill, int decode) {
  ClusterConfig config;
  config.base = llama7b_baseline_scenario(1, ir::DType::kInt4);
  config.replicas.assign(prefill + decode, ReplicaSpec{});
  config.disaggregated = true;
  config.prefill_replicas = prefill;
  return config;
}

TEST(ClusterDisaggregatedTest, TransfersReconcileAgainstFabricModel) {
  const std::vector<Request> requests =
      generate_requests(zipf_chat_stream(/*seed=*/21, 200, 20.0));
  const ClusterConfig config = disaggregated_config(2, 2);
  const ClusterMetrics cluster = run_serving_cluster(config, requests);

  EXPECT_EQ(cluster.fleet.completed, 200);
  EXPECT_EQ(cluster.arrived, 200);
  EXPECT_EQ(cluster.fleet.ttft.count, 200);
  EXPECT_EQ(cluster.fleet.e2e.count, 200);

  // Recompute every transfer independently from the IciFabric model: one
  // p2p message per KV block of ceil(prompt / block_tokens) blocks.
  const arch::TpuChip chip(config.base.chip_config);
  const std::int64_t block_tokens = config.base.scheduler.kv_block_tokens;
  const Bytes block_bytes =
      KvCacheManager::token_bytes(config.base.model) *
      static_cast<double>(block_tokens);
  std::int64_t expect_count = 0, expect_blocks = 0;
  Seconds expect_seconds = 0;
  for (const Request& request : requests) {
    if (request.output_len < 2) continue;
    const std::int64_t blocks =
        (request.prompt_len + block_tokens - 1) / block_tokens;
    expect_count += 1;
    expect_blocks += blocks;
    expect_seconds +=
        static_cast<double>(blocks) * chip.ici().p2p_time(block_bytes);
  }
  EXPECT_EQ(cluster.kv_transfer_count, expect_count);
  EXPECT_EQ(cluster.kv_transfer_blocks, expect_blocks);
  EXPECT_NEAR(cluster.kv_transfer_seconds, expect_seconds,
              1e-9 * expect_seconds);
  EXPECT_DOUBLE_EQ(cluster.kv_transfer_bytes,
                   static_cast<double>(expect_blocks) * block_bytes);

  // Side split: prefill replicas emit every first token (their clones
  // complete at the first token), decode replicas emit none locally —
  // their TPOT samples would be meaningless and must be excluded.
  for (int i = 0; i < 2; ++i) {
    EXPECT_GT(cluster.replica_metrics[i].ttft.count, 0);
    EXPECT_EQ(cluster.replica_metrics[2 + i].ttft.count, 0);
    EXPECT_EQ(cluster.replica_metrics[2 + i].tpot.count, 0);
  }
  // Stitched TPOT spans the wire gap: present for multi-token requests.
  EXPECT_GT(cluster.fleet.tpot.count, 0);
}

TEST(ClusterDisaggregatedTest, SingleTokenRequestsFinishOnPrefillSide) {
  std::vector<Request> requests;
  for (int i = 0; i < 8; ++i) {
    Request request = make_request(i, 0.1 * i);
    request.output_len = 1;  // no decode work at all
    requests.push_back(request);
  }
  const ClusterMetrics cluster =
      run_serving_cluster(disaggregated_config(1, 1), requests);
  EXPECT_EQ(cluster.fleet.completed, 8);
  EXPECT_EQ(cluster.kv_transfer_count, 0);  // nothing ever streams
  EXPECT_EQ(cluster.replica_metrics[1].completed, 0);  // decode side idle
}

// --- Tensor-parallel serving dispatch ----------------------------------------

TEST(ClusterTensorParallelTest, TpReplicaServesAndPublishesReference) {
  const std::vector<Request> requests =
      generate_requests(zipf_chat_stream(/*seed=*/5, 120, 20.0));
  ClusterConfig config;
  config.base = llama7b_baseline_scenario(1, ir::DType::kInt4);
  config.replicas = {ReplicaSpec{/*chips=*/1, /*tensor_parallel_ways=*/2}};
  const ClusterMetrics tp2 = run_serving_cluster(config, requests);
  config.replicas = {ReplicaSpec{}};
  const ClusterMetrics tp1 = run_serving_cluster(config, requests);

  EXPECT_EQ(tp2.fleet.completed, 120);
  EXPECT_EQ(tp2.fleet.chips, 2);  // a TP group spans ways chips
  EXPECT_EQ(tp2.replica_metrics[0].chips, 2);
  // Sharding halves per-chip compute but pays two all-reduces per layer:
  // the timeline must actually change — TP is dispatched, not ignored.
  EXPECT_NE(tp2.fleet.makespan, tp1.fleet.makespan);
  // The multi_chip.h reference model is published alongside.
  const std::string registry_json = tp2.fleet.registry.to_json();
  EXPECT_NE(registry_json.find("cluster.replica0.tp_reference_latency_s"),
            std::string::npos);
  EXPECT_NE(registry_json.find("cluster.replica0.tensor_parallel_ways"),
            std::string::npos);
  EXPECT_EQ(tp1.fleet.registry.to_json().find("tp_reference"),
            std::string::npos);
}

TEST(ClusterTensorParallelTest, TpUnlocksModelsLargerThanOneChip) {
  // The TP KV budget spans all shards' HBM headroom: the same model +
  // budget that admits requests at ways=2 must admit at least as much as
  // ways=1 — and the ways=2 engine runs a sharded cost model.
  ServingScenario scenario = llama7b_baseline_scenario(1, ir::DType::kInt8);
  scenario.tensor_parallel_ways = 2;
  scenario.validate();  // TP and pipeline stages may not combine
  scenario.chips = 2;
  EXPECT_THROW(scenario.validate(), ConfigError);
}

// --- IciFabric edge cases ----------------------------------------------------

class IciFabricTest : public ::testing::Test {
 protected:
  IciFabricTest() : chip_(arch::tpu_v4i_baseline()) {}
  arch::TpuChip chip_;
};

TEST_F(IciFabricTest, ZeroByteTransfersAreFree) {
  EXPECT_EQ(chip_.ici().p2p_time(0), 0.0);
  EXPECT_EQ(chip_.ici().p2p_time(-5.0), 0.0);
  EXPECT_EQ(chip_.ici().all_reduce_time(0, 8), 0.0);
  EXPECT_EQ(chip_.ici().all_reduce_energy(0, 8), 0.0);
  EXPECT_EQ(chip_.ici().p2p_energy(0), 0.0);
}

TEST_F(IciFabricTest, SingleChipAllReduceIsFree) {
  EXPECT_EQ(chip_.ici().all_reduce_time(1 << 20, 1), 0.0);
  EXPECT_EQ(chip_.ici().all_reduce_energy(1 << 20, 1), 0.0);
}

TEST_F(IciFabricTest, SingleHopVersusMultiHopLatency) {
  const mem::IciLinkSpec& spec = chip_.ici().spec();
  // One p2p message pays exactly one hop latency plus the wire time.
  const Bytes bytes = 4 * MiB;
  EXPECT_DOUBLE_EQ(chip_.ici().p2p_time(bytes),
                   spec.hop_latency + bytes / spec.bandwidth_per_link);
  // A ring all-reduce pays 2*(p-1) hops: latency grows with the ring.
  const Seconds two = chip_.ici().all_reduce_time(bytes, 2);
  const Seconds eight = chip_.ici().all_reduce_time(bytes, 8);
  EXPECT_GT(eight, two);
  // Tiny payload isolates the hop-latency term: 2*(p-1) hops exactly.
  const Seconds tiny = chip_.ici().all_reduce_time(1e-9, 8);
  EXPECT_NEAR(tiny, 2.0 * 7.0 * spec.hop_latency, 1e-12);
}

TEST_F(IciFabricTest, InvalidSpecsAreRejected) {
  mem::IciLinkSpec bad;
  bad.bandwidth_per_link = 0;
  EXPECT_THROW(mem::IciFabric(bad, chip_.energy()), ConfigError);
  bad = mem::IciLinkSpec{};
  bad.links_per_chip = 0;
  EXPECT_THROW(mem::IciFabric(bad, chip_.energy()), ConfigError);
  bad = mem::IciLinkSpec{};
  bad.bandwidth_per_link = -1.0;
  EXPECT_THROW(mem::IciFabric(bad, chip_.energy()), ConfigError);
  bad = mem::IciLinkSpec{};
  bad.hop_latency = -1.0 * us;
  EXPECT_THROW(mem::IciFabric(bad, chip_.energy()), ConfigError);
}

// --- Cluster sweep cells -----------------------------------------------------

ServingSweep small_cluster_sweep() {
  ServingSweep sweep;
  sweep.arrival_rates = {20.0};
  sweep.base.scenario = llama7b_baseline_scenario(1, ir::DType::kInt4);
  sweep.stream = zipf_chat_stream(/*seed=*/9, 100, 20.0);
  return sweep;
}

TEST(ClusterSweepTest, SingleEngineCellMatchesDirectRunServing) {
  const ServingSweep sweep = small_cluster_sweep();
  const std::vector<SweepCellResult> cells = run_serving_sweep(sweep);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].point.replicas, 0);
  // A replicas-0 cell is the single-engine path, bit for bit.
  const std::vector<Request> requests = generate_requests(sweep.stream);
  const ServingMetrics direct = run_serving(sweep.base.scenario, requests);
  EXPECT_EQ(cells[0].metrics.total_steps, direct.total_steps);
  EXPECT_EQ(cells[0].metrics.makespan, direct.makespan);
  EXPECT_EQ(cells[0].metrics.registry.to_json(), direct.registry.to_json());
}

TEST(ClusterSweepTest, ClusterCellsBitIdenticalAcrossThreadCounts) {
  ServingSweep sweep = small_cluster_sweep();
  const std::vector<std::string> routers = {"round_robin", "least_loaded"};
  sweep.axes = {{"replicas", {"0", "2"},
                 [](SweepPoint& point, std::size_t i) {
                   point.replicas = 2 * static_cast<int>(i);
                 }},
                {"router", routers,
                 [routers](SweepPoint& point, std::size_t i) {
                   point.router_policy = routers[i];
                 }}};
  SweepOptions serial, parallel;
  serial.threads = 1;
  parallel.threads = 4;
  const std::vector<SweepCellResult> a = run_serving_sweep(sweep, serial);
  const std::vector<SweepCellResult> b = run_serving_sweep(sweep, parallel);
  ASSERT_EQ(a.size(), 4u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].point.label, b[i].point.label);
    EXPECT_EQ(a[i].metrics.total_steps, b[i].metrics.total_steps);
    EXPECT_EQ(a[i].metrics.completed, b[i].metrics.completed);
    EXPECT_EQ(a[i].metrics.makespan, b[i].metrics.makespan);
    EXPECT_EQ(a[i].metrics.ttft.p99, b[i].metrics.ttft.p99);
    EXPECT_EQ(a[i].metrics.e2e.p99, b[i].metrics.e2e.p99);
    EXPECT_EQ(a[i].metrics.goodput_tokens_per_second,
              b[i].metrics.goodput_tokens_per_second);
    EXPECT_EQ(a[i].metrics.registry.to_json(), b[i].metrics.registry.to_json());
  }
  // Replicated cells really are cluster runs: 2x the chips.
  EXPECT_EQ(a[0].metrics.chips, 1);
  EXPECT_EQ(a[2].metrics.chips, 2);
  EXPECT_EQ(a[2].point.label, "rate=20 replicas=2 router=round_robin");
  EXPECT_EQ(a[3].point.router_policy, "least_loaded");
}

// --- Canonical cluster studies (the schema-v9 "cluster" bench block) ---------
// These gate the two pinned orderings on the EXACT grids serving_traffic
// runs (traffic_profiles.h), so regenerating the committed
// BENCH_serving.json can never silently lose either frontier.

TEST(ClusterCanonicalStudyTest, PrefixAffinityBeatsRoundRobinOnCanonicalGrid) {
  const models::TransformerConfig model =
      llama7b_baseline_scenario(1, ir::DType::kInt4).model;
  const std::vector<Request> requests =
      generate_requests(cluster_chatbot_stream(/*seed=*/42));
  const std::vector<SweepPoint> points =
      cluster_router_grid_points(model, &requests);
  ASSERT_EQ(points.size(), cluster_router_policy_order().size());
  const std::vector<ServingMetrics> results = run_sweep(points);
  // Row order is cluster_router_policy_order(): round_robin first,
  // prefix_affinity third — the pinned hit-rate ordering.
  EXPECT_GT(results[2].prefix_hit_rate, results[0].prefix_hit_rate);
  for (const ServingMetrics& metrics : results) {
    EXPECT_EQ(metrics.completed,
              static_cast<std::int64_t>(requests.size()));
  }
}

TEST(ClusterCanonicalStudyTest, DisaggregationWinsTtftAtTopCanonicalRate) {
  const models::TransformerConfig model =
      llama7b_baseline_scenario(1, ir::DType::kInt4).model;
  const ServingSweep sweep = cluster_disaggregation_sweep(model, /*seed=*/42);
  const std::vector<SweepCellResult> cells = run_serving_sweep(sweep);
  ASSERT_EQ(cells.size(), 2 * cluster_disagg_rates().size());
  // Rate-major, disaggregation {off, on} innermost: the last two cells
  // are the top rate's colocated/disaggregated pair — the pinned TTFT
  // ordering.
  const SweepCellResult& colocated = cells[cells.size() - 2];
  const SweepCellResult& disaggregated = cells[cells.size() - 1];
  ASSERT_FALSE(colocated.point.disaggregated);
  ASSERT_TRUE(disaggregated.point.disaggregated);
  EXPECT_EQ(colocated.arrival_rate, cluster_disagg_rates().back());
  EXPECT_LT(disaggregated.metrics.ttft.p99, colocated.metrics.ttft.p99);
  // The disaggregated cells really streamed KV over the fabric.
  const auto& counters = disaggregated.metrics.registry.counters();
  const auto it = counters.find("cluster.kv_transfer_count");
  ASSERT_NE(it, counters.end());
  EXPECT_GT(it->second, 0);
}

}  // namespace
}  // namespace cimtpu::serving
