#include "serving/cluster.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "arch/chip.h"
#include "common/status.h"
#include "parallel/multi_chip.h"
#include "serving/kv_cache_manager.h"
#include "sim/workload_runner.h"

namespace cimtpu::serving {

void ClusterConfig::validate() const {
  base.validate();
  CIMTPU_CONFIG_CHECK(!replicas.empty(), "cluster needs at least one replica");
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    const ReplicaSpec& spec = replicas[i];
    CIMTPU_CONFIG_CHECK(spec.chips >= 1, "replica " << i << ": chips must be >= 1, got "
                                                    << spec.chips);
    CIMTPU_CONFIG_CHECK(spec.tensor_parallel_ways >= 1,
                        "replica " << i << ": tensor_parallel_ways must be >= 1, got "
                                   << spec.tensor_parallel_ways);
    CIMTPU_CONFIG_CHECK(
        spec.chips == 1 || spec.tensor_parallel_ways == 1,
        "replica " << i
                   << ": pipeline stages and tensor parallelism cannot combine");
  }
  if (disaggregated) {
    CIMTPU_CONFIG_CHECK(prefill_replicas >= 1,
                        "disaggregated mode needs >= 1 prefill replica, got "
                            << prefill_replicas);
    CIMTPU_CONFIG_CHECK(
        static_cast<std::size_t>(prefill_replicas) < replicas.size(),
        "disaggregated mode needs >= 1 decode replica: "
            << prefill_replicas << " prefill of " << replicas.size()
            << " total");
    CIMTPU_CONFIG_CHECK(base.max_sim_seconds == 0,
                        "disaggregated mode does not support max_sim_seconds "
                        "(per-side horizons would desynchronize the stitch)");
  }
}

namespace {

// --- Builtin router policies -------------------------------------------------

int least_loaded_replica(const std::vector<ReplicaLoad>& loads) {
  int best = 0;
  for (int i = 1; i < static_cast<int>(loads.size()); ++i) {
    if (loads[i].outstanding_tokens < loads[best].outstanding_tokens) best = i;
  }
  return best;  // ties resolve to the lowest index
}

class RoundRobinRouter final : public RouterPolicy {
 public:
  explicit RoundRobinRouter(int num_replicas) : num_replicas_(num_replicas) {}
  int route(const Request&, const std::vector<ReplicaLoad>&) override {
    const int pick = next_;
    next_ = (next_ + 1) % num_replicas_;
    return pick;
  }

 private:
  int num_replicas_;
  int next_ = 0;
};

class LeastLoadedRouter final : public RouterPolicy {
 public:
  int route(const Request&, const std::vector<ReplicaLoad>& loads) override {
    return least_loaded_replica(loads);
  }
};

// Requests sharing a prefix_id stick to the replica that served the first
// of their family, so its prefix cache stays warm for the whole family;
// first-seen (and untagged) requests fall back to least-loaded.
class PrefixAffinityRouter final : public RouterPolicy {
 public:
  int route(const Request& request,
            const std::vector<ReplicaLoad>& loads) override {
    if (request.prefix_id >= 0) {
      const auto it = sticky_.find(request.prefix_id);
      if (it != sticky_.end()) return it->second;
    }
    const int pick = least_loaded_replica(loads);
    if (request.prefix_id >= 0) sticky_.emplace(request.prefix_id, pick);
    return pick;
  }

 private:
  std::unordered_map<std::int64_t, int> sticky_;
};

class TenantStickyRouter final : public RouterPolicy {
 public:
  explicit TenantStickyRouter(int num_replicas)
      : num_replicas_(num_replicas) {}
  int route(const Request& request, const std::vector<ReplicaLoad>&) override {
    const auto [it, inserted] = sticky_.try_emplace(request.tenant_id, next_);
    if (inserted) next_ = (next_ + 1) % num_replicas_;
    return it->second;
  }

 private:
  int num_replicas_;
  int next_ = 0;
  std::unordered_map<std::int64_t, int> sticky_;
};

}  // namespace

std::unique_ptr<RouterPolicy> make_router_policy(const std::string& name,
                                                 int num_replicas) {
  CIMTPU_CONFIG_CHECK(num_replicas >= 1,
                      "router needs >= 1 replica, got " << num_replicas);
  if (name == "least_loaded") return std::make_unique<LeastLoadedRouter>();
  if (name == "prefix_affinity") {
    return std::make_unique<PrefixAffinityRouter>();
  }
  if (name == "round_robin") {
    return std::make_unique<RoundRobinRouter>(num_replicas);
  }
  if (name == "tenant_sticky") {
    return std::make_unique<TenantStickyRouter>(num_replicas);
  }
  throw ConfigError("unknown router policy '" + name +
                    "'; built-in: least_loaded prefix_affinity round_robin "
                    "tenant_sticky");
}

namespace {

// --- Cluster run -------------------------------------------------------------

constexpr Seconds kNever = std::numeric_limits<double>::infinity();

// A finished prefill whose KV is in flight to a decode replica: the decode
// side may only see the request once the last block lands at `ready`.
struct PendingTransfer {
  Seconds ready = 0;
  std::int64_t id = 0;
  std::size_t position = 0;  ///< index in the cluster's request list
  int src_replica = 0;
  std::int64_t blocks = 0;
  Bytes bytes = 0;
  Seconds duration = 0;
};

struct TransferLater {
  bool operator()(const PendingTransfer& a, const PendingTransfer& b) const {
    if (a.ready != b.ready) return a.ready > b.ready;
    return a.id > b.id;  // deterministic tie-break
  }
};

ServingScenario replica_scenario(const ClusterConfig& config, int index,
                                 bool multi_replica) {
  ServingScenario scenario = config.base;
  scenario.chips = config.replicas[index].chips;
  scenario.tensor_parallel_ways = config.replicas[index].tensor_parallel_ways;
  if (multi_replica && scenario.trace.enabled) {
    scenario.trace.label += "_r" + std::to_string(index);
  }
  return scenario;
}

/// Folds `from` into `*into` by `rule`: kSum adds (a nested table field by
/// field), kMax keeps the larger.
template <typename T>
void combine(FleetRule rule, const T& from, T* into) {
  if constexpr (std::is_arithmetic_v<T>) {
    *into = rule == FleetRule::kMax ? std::max(*into, from) : *into + from;
  } else {
    T::for_each_field([&](const char*, auto member, auto&&...) {
      combine(rule, from.*member, &(into->*member));
    });
  }
}

// The cluster rollup, once every replica has finished: the fleet's fields
// by their FleetRule (`stitched[i]` is `requests[i]`'s timeline), Jain
// over the serving replicas [first_serving, n), and the fleet registry.
void finish_cluster(const ClusterConfig& config,
                    const std::vector<Request>& requests,
                    const std::vector<ServingEngine::RequestOutcome>& stitched,
                    int first_serving, ClusterMetrics* cluster) {
  ServingMetrics& fleet = cluster->fleet;
  for (const ServingEngine::RequestOutcome& row : stitched) {
    if (!row.arrived) continue;
    cluster->arrived += 1;
    if (row.shed) cluster->shed += 1;
  }
  rollup_requests(
      requests.size(),
      [&](const std::function<void(const RequestRow&)>& visit) {
        for (std::size_t i = 0; i < requests.size(); ++i) {
          const ServingEngine::RequestOutcome& row = stitched[i];
          if (row.arrived) {
            visit(RequestRow{&requests[i], row.first_token, row.completion});
          }
        }
      },
      config.base.scheduler.admission, &fleet);
  fleet.num_requests = static_cast<std::int64_t>(requests.size());
  ServingMetrics::for_each_field([&](const char*, auto member, FleetRule rule,
                                     const FieldKeys&) {
    using T = std::decay_t<decltype(fleet.*member)>;
    if constexpr (std::is_arithmetic_v<T> ||
                  std::is_same_v<T, ServingCounters> ||
                  std::is_same_v<T, FaultStats>) {
      if (rule != FleetRule::kSum && rule != FleetRule::kMax) return;
      T total{};
      for (const ServingMetrics& replica : cluster->replica_metrics) {
        combine(rule, replica.*member, &total);
      }
      fleet.*member = total;
    }
  });
  cluster->prefill_replicas = first_serving;

  double busy_chip_seconds = 0;
  std::vector<double> serving_tokens;
  for (std::size_t i = 0; i < cluster->replica_metrics.size(); ++i) {
    const ServingMetrics& replica = cluster->replica_metrics[i];
    busy_chip_seconds += replica.mxu_utilization * replica.makespan *
                         static_cast<double>(replica.chips);
    if (static_cast<int>(i) >= first_serving) {
      serving_tokens.push_back(static_cast<double>(replica.generated_tokens));
    }
  }
  // From the summed counters, so the hit rate reflects what affinity
  // routing actually preserved across the fleet (round-robin scattering a
  // prefix family across replicas cools every cache).
  derive_metrics(busy_chip_seconds, &fleet);
  if (serving_tokens.size() > 1) {
    cluster->jain_across_replicas = jain_fairness_index(serving_tokens);
  }

  publish_keys(*cluster, &FieldKeys::cluster,
               /*gate_open=*/cluster->disaggregated, /*prefix=*/"",
               &fleet.registry);
  for (std::size_t i = 0; i < config.replicas.size(); ++i) {
    const int ways = config.replicas[i].tensor_parallel_ways;
    if (ways > 1) {
      // The multi_chip.h TP model, dispatched from serving: the reference
      // whole-request latency/communication split the per-step all-reduce
      // costing inside the replica engine is reconciled against.
      sim::LlmScenario reference;
      reference.model = config.base.model;
      const parallel::LlmTensorParallelResult tp =
          parallel::evaluate_llm_tensor_parallel(config.base.chip_config,
                                                 reference, ways);
      const std::string prefix = replica_key_prefix(i);
      MetricsRegistry& registry = fleet.registry;
      registry.publish(prefix + "tensor_parallel_ways", tp.ways);
      registry.publish(prefix + "tp_reference_latency_s", tp.latency);
      registry.publish(prefix + "tp_reference_communication_s",
                       tp.communication_time);
    }
  }
}

}  // namespace

ClusterMetrics run_serving_cluster(const ClusterConfig& config,
                                   const std::vector<Request>& requests,
                                   SharedStepCostCache* shared_costs,
                                   ServingTrace* trace_out) {
  config.validate();
  const auto wall_start = std::chrono::steady_clock::now();
  const int n = static_cast<int>(config.replicas.size());

  ClusterMetrics cluster;
  cluster.disaggregated = config.disaggregated;
  cluster.replica_metrics.reserve(n);
  const auto stamp_wall_time = [&] {
    cluster.fleet.sim_wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
  };

  // --- Single replica, colocated: the single-engine path, bit for bit ----
  // Exactly the inject-all / drain / finish sequence run_serving performs
  // (with trace_out forwarded straight through), so every golden pin,
  // trace file, and registry byte is preserved.  The router policy is
  // still constructed — an unknown name must fail identically at N=1.
  if (n == 1 && !config.disaggregated) {
    make_router_policy(config.router_policy, 1);
    const ServingScenario scenario =
        replica_scenario(config, 0, /*multi_replica=*/false);
    ServingEngine engine(scenario, shared_costs, trace_out);
    engine.inject_all(requests);
    engine.drain();
    cluster.replica_metrics.push_back(engine.finish());
    // Injection order is request order: the outcomes are the stitched rows.
    finish_cluster(config, requests, engine.outcomes(), /*first_serving=*/0,
                   &cluster);
    stamp_wall_time();
    return cluster;
  }

  // The router trace: kRoute / kKvTransfer events plus (with a configured
  // dir) its own "<label>_router" trace files next to the per-replica
  // ones.  Mirrors the run_serving trace_out plumbing.
  ServingTrace local_trace;
  ServingTrace* cluster_trace = trace_out != nullptr ? trace_out : &local_trace;
  TraceConfig router_config = config.base.trace;
  if (router_config.enabled) router_config.label += "_router";
  *cluster_trace = ServingTrace(router_config);
  const bool tracing = cluster_trace->enabled();

  // Engines read injected requests in place.  Colocated replicas reference
  // `requests` itself; the disaggregated per-side clones live here, at
  // stable addresses, declared before the engines so they outlive them.
  std::deque<Request> clones;
  std::vector<std::unique_ptr<ServingEngine>> engines;
  engines.reserve(n);
  for (int i = 0; i < n; ++i) {
    engines.push_back(std::make_unique<ServingEngine>(
        replica_scenario(config, i, /*multi_replica=*/true), shared_costs));
  }

  // stitched[p]: `requests[p]`'s cross-replica timeline, filled once every
  // replica has finished (finish() marks horizon cuts shed).
  std::vector<ServingEngine::RequestOutcome> stitched(requests.size());
  // injected[i][k]: position in `requests` of replica i's k-th injection.
  std::vector<std::vector<std::size_t>> injected(n);

  if (!config.disaggregated) {
    // --- Colocated: route every arrival with all replicas pumped to the
    // arrival instant, so load-aware policies see real loads ------------
    std::unique_ptr<RouterPolicy> policy =
        make_router_policy(config.router_policy, n);
    std::vector<ReplicaLoad> loads(n);
    for (std::size_t position = 0; position < requests.size(); ++position) {
      const Request& request = requests[position];
      for (auto& engine : engines) engine->pump(request.arrival_time);
      for (int i = 0; i < n; ++i) {
        loads[i].outstanding_tokens = engines[i]->outstanding_tokens();
      }
      const int pick = policy->route(request, loads);
      CIMTPU_CHECK_MSG(pick >= 0 && pick < n,
                       "router policy '" << config.router_policy
                                         << "' picked replica " << pick
                                         << " of " << n);
      if (tracing) {
        cluster_trace->on_route(request, pick, request.arrival_time);
      }
      engines[pick]->inject(request);
      injected[pick].push_back(position);
    }
  } else {
    // --- Disaggregated: prefill replicas [0, P) run prompts as
    // output_len=1 clones, finished KV streams block-by-block over the
    // fabric, decode replicas [P, n) pick the request up once the last
    // block lands ------------------------------------------------------
    const int num_prefill = config.prefill_replicas;
    const int num_decode = n - num_prefill;
    std::unique_ptr<RouterPolicy> policy =
        make_router_policy(config.router_policy, num_decode);

    const arch::TpuChip chip(config.base.chip_config);
    const std::int64_t block_tokens = config.base.scheduler.kv_block_tokens;
    const Bytes block_bytes =
        KvCacheManager::token_bytes(config.base.model) *
        static_cast<double>(block_tokens);

    for (int i = 0; i < num_prefill; ++i) engines[i]->set_completion_log(true);

    std::priority_queue<PendingTransfer, std::vector<PendingTransfer>,
                        TransferLater>
        in_flight;
    // Harvests finished prefills off every prefill engine's completion log
    // and launches their KV transfers.  A request with output_len == 1 is
    // already fully served by its prefill clone — nothing to stream.
    const auto harvest = [&]() {
      for (int i = 0; i < num_prefill; ++i) {
        for (const auto& [index, completion] :
             engines[i]->take_completions()) {
          const std::size_t position = injected[i][index];
          const Request& original = requests[position];
          if (original.output_len < 2) continue;
          const std::int64_t blocks =
              (original.prompt_len + block_tokens - 1) / block_tokens;
          const Bytes bytes = static_cast<double>(blocks) * block_bytes;
          // Block-granular streaming: each KV block is its own p2p
          // message, so the transfer pays the hop latency per block —
          // the Mooncake-style pipelining cost model.
          const Seconds duration =
              static_cast<double>(blocks) * chip.ici().p2p_time(block_bytes);
          in_flight.push(PendingTransfer{completion + duration, original.id,
                                         position, i, blocks, bytes,
                                         duration});
          cluster.kv_transfer_count += 1;
          cluster.kv_transfer_blocks += blocks;
          cluster.kv_transfer_bytes += static_cast<std::int64_t>(bytes);
          cluster.kv_transfer_seconds += duration;
        }
      }
    };

    std::size_t next_arrival = 0;
    int next_prefill = 0;  // prefill replicas take arrivals round-robin
    std::vector<ReplicaLoad> loads(num_decode);
    for (;;) {
      const Seconds t_arrival = next_arrival < requests.size()
                                    ? requests[next_arrival].arrival_time
                                    : kNever;
      Seconds t_inject = in_flight.empty() ? kNever : in_flight.top().ready;
      const Seconds t = std::min(t_arrival, t_inject);
      if (t == kNever) {
        // No event in sight: finished prefills may still be working
        // through their queues — drain them and re-check for transfers.
        bool pending = false;
        for (int i = 0; i < num_prefill; ++i) {
          pending = pending || engines[i]->work_pending();
        }
        if (!pending) break;
        for (int i = 0; i < num_prefill; ++i) engines[i]->drain();
        harvest();
        if (in_flight.empty()) break;
        continue;
      }
      for (int i = 0; i < num_prefill; ++i) engines[i]->pump(t);
      harvest();
      // A transfer launched by this harvest can land before `t`'s event.
      t_inject = in_flight.empty() ? kNever : in_flight.top().ready;
      if (t_inject <= t_arrival) {
        const PendingTransfer transfer = in_flight.top();
        in_flight.pop();
        const Request& original = requests[transfer.position];
        for (int i = 0; i < num_decode; ++i) {
          engines[num_prefill + i]->pump(transfer.ready);
          loads[i].outstanding_tokens =
              engines[num_prefill + i]->outstanding_tokens();
        }
        const int pick = policy->route(original, loads);
        CIMTPU_CHECK_MSG(pick >= 0 && pick < num_decode,
                         "router policy '" << config.router_policy
                                           << "' picked decode replica "
                                           << pick << " of " << num_decode);
        const int dst = num_prefill + pick;
        if (tracing) {
          cluster_trace->on_kv_transfer(
              transfer.id, transfer.src_replica, dst, transfer.blocks,
              transfer.bytes, transfer.ready - transfer.duration,
              transfer.duration);
          cluster_trace->on_route(original, dst, transfer.ready);
        }
        // The decode-side clone: lands when its KV does, keeps its output
        // budget, and drops the prefix tag (its prompt KV arrived by
        // wire, not through this replica's prefix cache) and deadlines
        // (SLOs are judged at the stitch against the ORIGINAL request —
        // decode-side EDF would misread an already-served TTFT).
        Request& clone = clones.emplace_back(original);
        clone.arrival_time = transfer.ready;
        clone.prefix_id = -1;
        clone.prefix_len = 0;
        clone.ttft_deadline = 0;
        clone.tpot_deadline = 0;
        engines[dst]->inject_prefilled(clone);
        injected[dst].push_back(transfer.position);
      } else {
        const Request& original = requests[next_arrival];
        if (tracing) {
          cluster_trace->on_route(original, next_prefill,
                                  original.arrival_time);
        }
        // The prefill-side clone: the prompt plus ONE output token — its
        // emission is the request's first token (TTFT is measured here).
        Request& clone = clones.emplace_back(original);
        clone.output_len = 1;
        clone.tpot_deadline = 0;  // no steady decode on this side
        engines[next_prefill]->inject(clone);
        injected[next_prefill].push_back(next_arrival);
        next_prefill = (next_prefill + 1) % num_prefill;
        next_arrival += 1;
      }
    }
  }
  for (auto& engine : engines) engine->drain();

  // Stitch.  Colocated, a request's row is its one replica's outcome.
  // Disaggregated: TTFT (and arrival) from the prefill side, completion
  // from the decode side; an output_len == 1 request completes on the
  // prefill side outright.  A request is shed if EITHER side shed it — a
  // shed prefill never transfers, so its decode fields stay unset.
  const int first_serving = config.disaggregated ? config.prefill_replicas : 0;
  for (int i = 0; i < n; ++i) {
    cluster.replica_metrics.push_back(engines[i]->finish());
    const std::vector<ServingEngine::RequestOutcome> outcomes =
        engines[i]->outcomes();
    for (std::size_t k = 0; k < outcomes.size(); ++k) {
      const ServingEngine::RequestOutcome& outcome = outcomes[k];
      const std::size_t position = injected[i][k];
      ServingEngine::RequestOutcome& row = stitched[position];
      if (!config.disaggregated) {
        row = outcome;
      } else if (i < first_serving) {
        row.arrived = outcome.arrived;
        row.first_token = outcome.first_token;
        row.shed = row.shed || outcome.shed;
        if (requests[position].output_len < 2) {
          row.completion = outcome.completion;
        }
      } else {
        row.completion = outcome.completion;
        row.shed = row.shed || outcome.shed;
      }
    }
  }
  finish_cluster(config, requests, stitched, first_serving, &cluster);

  if (tracing) write_trace_files(*cluster_trace, {});
  stamp_wall_time();
  return cluster;
}

ServingMetrics flatten_cluster_metrics(ClusterMetrics&& cluster) {
  return std::move(cluster.fleet);
}

}  // namespace cimtpu::serving
