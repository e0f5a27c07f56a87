#pragma once
// Cluster-scale serving: N replica engines behind a pluggable router, with
// optional DistServe-style prefill/decode disaggregation and Mooncake-style
// block-granular KV streaming over the modeled ICI fabric.
//
// Each replica is its own ServingEngine (serving_sim.h) — its own seeded
// scheduler, paged-KV manager, fault processes, and discrete-event clock —
// either a pipeline-parallel deployment (ReplicaSpec::chips stages) or a
// tensor-parallel one (ReplicaSpec::tensor_parallel_ways shards, finally
// dispatching the parallel/multi_chip.h TP model from serving and admitting
// models whose full weights exceed one chip's HBM).  The cluster driver
// advances the replicas on ONE discrete-event timeline: every router
// decision happens at the request's arrival instant with all candidate
// replicas pumped to that instant, so load-aware policies see the loads a
// real router would.  Router policies are picked by name
// (make_router_policy), like AdmissionPolicy.
//
// Disaggregated mode dedicates the first `prefill_replicas` replicas to
// prefill: a request's prompt runs there (as an output_len=1 clone whose
// single emission IS the request's first token), then its finished KV
// blocks stream to a router-chosen decode replica with transfer time costed
// per block through IciFabric::p2p_time — overlapping with the decode
// replica's ongoing steps, which only see the request once the last block
// lands (ServingEngine::inject_prefilled).  The result is a ClusterMetrics:
// the fleet's stitched request metrics (TTFT from the prefill side,
// completion from the decode side) next to the per-replica rows.
//
// BIT-IDENTITY CONTRACT: one replica + "round_robin" + colocated is the
// single-engine path — run_serving_cluster defers to the same
// inject/pump/drain sequence run_serving performs, produces the identical
// ServingMetrics (all golden pins), and emits no kRoute/kKvTransfer events,
// so trace files and registry JSON are byte-identical too.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serving/serving_sim.h"

namespace cimtpu::serving {

/// One replica's deployment shape.  Exactly one parallelism axis may
/// exceed 1: `chips` > 1 is a pipeline (layers split across stages),
/// `tensor_parallel_ways` > 1 a Megatron-style TP group (heads/FFN split,
/// two ring all-reduces per layer per step, KV budget spanning all
/// shards' HBM headroom).
struct ReplicaSpec {
  int chips = 1;
  int tensor_parallel_ways = 1;
};

/// Cluster deployment description.  `base` is the per-replica scenario
/// prototype: every replica reuses its model / scheduler / eviction /
/// trace / fault configuration, with chips and tensor_parallel_ways
/// overridden per ReplicaSpec.
struct ClusterConfig {
  ServingScenario base;
  std::vector<ReplicaSpec> replicas = {ReplicaSpec{}};

  /// Registry-keyed RouterPolicy name (see make_router_policy).
  std::string router_policy = "round_robin";

  /// DistServe-style prefill/decode disaggregation: the first
  /// `prefill_replicas` replicas run prompts only, the rest decode only,
  /// and finished prompt KV streams between them block-by-block over the
  /// base chip config's ICI fabric.  Requires at least one replica on
  /// each side.  The router policy governs the DECODE side; prefill
  /// replicas take arrivals round-robin.
  bool disaggregated = false;
  int prefill_replicas = 1;

  void validate() const;
};

/// Load snapshot of one replica at a routing instant.
struct ReplicaLoad {
  /// Prompt + output tokens of every request injected into the replica
  /// and not yet finished or shed — queued and resident work together,
  /// the "queued+resident tokens" signal least_loaded balances on.
  std::int64_t outstanding_tokens = 0;
};

/// A routing decision maker.  Stateful (stickiness, counters) and owned
/// by one cluster run; `route` returns the replica index in [0, n) for a
/// request, given per-replica loads snapshotted at the routing instant.
class RouterPolicy {
 public:
  virtual ~RouterPolicy() = default;
  virtual int route(const Request& request,
                    const std::vector<ReplicaLoad>& loads) = 0;
};

// --- Construction by name ---------------------------------------------------

/// Instantiates the built-in policy named `name` ("least_loaded",
/// "prefix_affinity", "round_robin" or "tenant_sticky") for `num_replicas`
/// replicas.  Throws ConfigError listing the built-in names when the name
/// is unknown.
std::unique_ptr<RouterPolicy> make_router_policy(const std::string& name,
                                                 int num_replicas);

// --- Cluster rollup ----------------------------------------------------------

/// A cluster run: the whole cluster as one ServingMetrics (`fleet`), the
/// per-replica rows, and the fields only a cluster has.  How `fleet`
/// combines each field over the replicas is that field's FleetRule in
/// ServingMetrics::for_each_field; its request rows come from the ORIGINAL
/// requests' stitched cross-replica timelines, SLOs judged against their
/// own deadlines.  `fleet.registry` holds the "cluster.*" keys of both
/// tables plus every replica's "cluster.replica<i>.*" keys.
///
/// In disaggregated mode the per-replica rows describe the CLONES each
/// side ran (a prefill replica's completions are first tokens).
struct ClusterMetrics {
  ServingMetrics fleet;
  std::vector<ServingMetrics> replica_metrics;
  bool disaggregated = false;
  std::int64_t prefill_replicas = 0;  ///< disaggregated: replicas [0, this)

  /// Original requests that arrived inside the window, and those of them
  /// shed by admission control, a fault or the horizon: every arrived
  /// request either completed or was shed (arrived == fleet.completed +
  /// shed).
  std::int64_t arrived = 0;
  std::int64_t shed = 0;

  /// Imbalance: Jain's fairness index over per-replica generated tokens
  /// (1.0 = perfectly even, 1/N = one replica did everything).  Computed
  /// over SERVING replicas only (decode side in disaggregated mode).
  /// fleet.jain_fairness stays the index over tenants.
  double jain_across_replicas = 1.0;

  // Disaggregation accounting (all 0 when colocated).
  std::int64_t kv_transfer_count = 0;   ///< streamed prompts
  std::int64_t kv_transfer_blocks = 0;  ///< KV blocks moved
  std::int64_t kv_transfer_bytes = 0;
  Seconds kv_transfer_seconds = 0;  ///< summed per-transfer link time

  /// `visit(name, &ClusterMetrics::member, FieldKeys)` per field.  The
  /// `replica_metrics` row's cluster key counts the replicas.
  template <typename Visit>
  static void for_each_field(Visit&& visit) {
    using C = ClusterMetrics;
    using K = FieldKeys;
    constexpr bool kGated = true;  // published only when disaggregated
    visit("fleet", &C::fleet, K{});
    visit("replica_metrics", &C::replica_metrics,
          K{nullptr, "cluster.replicas"});
    visit("disaggregated", &C::disaggregated,
          K{nullptr, "cluster.disaggregated"});
    visit("prefill_replicas", &C::prefill_replicas,
          K{nullptr, "cluster.prefill_replicas", nullptr, kGated});
    visit("arrived", &C::arrived, K{nullptr, "cluster.arrived"});
    visit("shed", &C::shed, K{nullptr, "cluster.shed"});
    visit("jain_across_replicas", &C::jain_across_replicas,
          K{nullptr, "cluster.jain_across_replicas"});
    visit("kv_transfer_count", &C::kv_transfer_count,
          K{nullptr, "cluster.kv_transfer_count", nullptr, kGated});
    visit("kv_transfer_blocks", &C::kv_transfer_blocks,
          K{nullptr, "cluster.kv_transfer_blocks", nullptr, kGated});
    visit("kv_transfer_bytes", &C::kv_transfer_bytes,
          K{nullptr, "cluster.kv_transfer_bytes", nullptr, kGated});
    visit("kv_transfer_seconds", &C::kv_transfer_seconds,
          K{nullptr, "cluster.kv_transfer_seconds", nullptr, kGated});
  }
};

/// Runs `requests` (arrival-sorted, same contract as run_serving) through
/// the cluster.  With one replica, "round_robin", and colocated mode the
/// result's replica_metrics[0] is bit-identical to
/// run_serving(config.base, requests, ...).  `trace_out`, when tracing is
/// enabled, receives REPLICA 0's trace for the single-replica path
/// (preserving the single-engine trace files byte for byte) and the
/// cluster's router trace (kRoute/kKvTransfer events) otherwise.
ClusterMetrics run_serving_cluster(const ClusterConfig& config,
                                   const std::vector<Request>& requests,
                                   SharedStepCostCache* shared_costs = nullptr,
                                   ServingTrace* trace_out = nullptr);

/// A cluster cell for drivers that compare cluster cells next to
/// single-engine cells (the sweep): `cluster.fleet`, moved out.
ServingMetrics flatten_cluster_metrics(ClusterMetrics&& cluster);

}  // namespace cimtpu::serving
