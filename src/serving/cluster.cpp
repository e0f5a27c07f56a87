#include "serving/cluster.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>
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

// One request's cross-replica timeline, kept at the request's position in
// the cluster's request list.
struct StitchedRequest {
  bool arrived = false;
  Seconds first_token = -1;
  Seconds completion = -1;
  bool shed = false;
};

// Copies a colocated engine's outcomes onto the stitched rows: its k-th
// injected request sits at `positions[k]` in the cluster's request list.
void stitch_outcomes(const ServingEngine& engine,
                     const std::vector<std::size_t>& positions,
                     std::vector<StitchedRequest>* stitched) {
  const std::vector<ServingEngine::RequestOutcome> outcomes =
      engine.outcomes();
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    StitchedRequest& row = (*stitched)[positions[k]];
    row.arrived = outcomes[k].arrived;
    row.first_token = outcomes[k].first_token;
    row.completion = outcomes[k].completion;
    row.shed = outcomes[k].shed;
  }
}

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

// Stitched distributional rollup over the ORIGINAL requests, mirroring the
// single-engine finish() semantics (serving_sim.cpp): TTFT for every
// emitted first token, e2e/TPOT/SLO for completions, SLO judged against
// the ORIGINAL deadlines.  `stitched[i]` is `requests[i]`'s timeline.
void stitch_requests(const std::vector<Request>& requests,
                     const std::vector<StitchedRequest>& stitched,
                     ClusterMetrics* cluster) {
  std::vector<double> ttft, tpot, e2e;
  ttft.reserve(requests.size());
  tpot.reserve(requests.size());
  e2e.reserve(requests.size());
  std::int64_t slo_tokens = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& request = requests[i];
    const StitchedRequest& row = stitched[i];
    if (!row.arrived) continue;
    cluster->arrived += 1;
    if (row.shed) cluster->shed += 1;
    if (row.first_token >= 0) {
      ttft.push_back(row.first_token - request.arrival_time);
    }
    if (row.completion < 0) continue;
    cluster->completed += 1;
    cluster->generated_tokens += request.output_len;
    cluster->makespan = std::max(cluster->makespan, row.completion);
    e2e.push_back(row.completion - request.arrival_time);
    if (request.output_len > 1 && row.first_token >= 0) {
      tpot.push_back((row.completion - row.first_token) /
                     static_cast<double>(request.output_len - 1));
    }
    if (meets_slo(request, row.first_token, row.completion)) {
      cluster->slo_met += 1;
      slo_tokens += request.output_len;
    }
  }
  cluster->ttft = summarize_latencies(std::move(ttft));
  cluster->tpot = summarize_latencies(std::move(tpot));
  cluster->e2e = summarize_latencies(std::move(e2e));
  if (cluster->arrived > 0) {
    cluster->slo_attainment = static_cast<double>(cluster->slo_met) /
                              static_cast<double>(cluster->arrived);
    cluster->availability = static_cast<double>(cluster->completed) /
                            static_cast<double>(cluster->arrived);
  }
  if (cluster->makespan > 0) {
    cluster->goodput_tokens_per_second =
        static_cast<double>(cluster->generated_tokens) / cluster->makespan;
    cluster->slo_goodput_tokens_per_second =
        static_cast<double>(slo_tokens) / cluster->makespan;
  }
}

// Fleet-level rollups computed from the finished per-replica metrics:
// prefix economics, Jain-across-replicas imbalance (over the serving
// replicas [first_serving, n)), utilization, and the "cluster.*" registry.
void finish_cluster(const ClusterConfig& config, int first_serving,
                    ClusterMetrics* cluster) {
  const int n = static_cast<int>(config.replicas.size());
  std::int64_t lookup = 0, hits = 0;
  std::vector<double> serving_tokens;
  serving_tokens.reserve(n - first_serving);
  cluster->replica_utilization.reserve(n);
  for (int i = 0; i < n; ++i) {
    const ServingMetrics& replica = cluster->replica_metrics[i];
    lookup += replica.counters.prefix_lookup_tokens;
    hits += replica.counters.prefix_hit_tokens;
    cluster->replica_utilization.push_back(replica.mxu_utilization);
    cluster->total_chips += replica.chips;
    if (i >= first_serving) {
      serving_tokens.push_back(static_cast<double>(replica.generated_tokens));
    }
  }
  if (lookup > 0) {
    cluster->prefix_hit_rate =
        static_cast<double>(hits) / static_cast<double>(lookup);
  }
  if (serving_tokens.size() > 1) {
    cluster->jain_across_replicas = jain_fairness_index(serving_tokens);
  }

  MetricsRegistry& registry = cluster->registry;
  registry.set_counter("cluster.replicas", cluster->replicas);
  registry.set_counter("cluster.total_chips", cluster->total_chips);
  registry.set_counter("cluster.disaggregated",
                       cluster->disaggregated ? 1 : 0);
  registry.set_counter("cluster.num_requests", cluster->num_requests);
  registry.set_counter("cluster.arrived", cluster->arrived);
  registry.set_counter("cluster.completed", cluster->completed);
  registry.set_counter("cluster.shed", cluster->shed);
  registry.set_counter("cluster.generated_tokens", cluster->generated_tokens);
  registry.set_gauge("cluster.makespan_s", cluster->makespan);
  registry.set_gauge("cluster.goodput_tokens_per_s",
                     cluster->goodput_tokens_per_second);
  registry.set_gauge("cluster.slo_attainment", cluster->slo_attainment);
  registry.set_gauge("cluster.availability", cluster->availability);
  registry.set_gauge("cluster.prefix_hit_rate", cluster->prefix_hit_rate);
  registry.set_gauge("cluster.jain_across_replicas",
                     cluster->jain_across_replicas);
  if (cluster->disaggregated) {
    registry.set_counter("cluster.prefill_replicas", config.prefill_replicas);
    registry.set_counter("cluster.kv_transfer_count",
                         cluster->kv_transfer_count);
    registry.set_counter("cluster.kv_transfer_blocks",
                         cluster->kv_transfer_blocks);
    registry.set_counter("cluster.kv_transfer_bytes",
                         static_cast<std::int64_t>(cluster->kv_transfer_bytes));
    registry.set_gauge("cluster.kv_transfer_seconds",
                       cluster->kv_transfer_seconds);
  }
  for (int i = 0; i < n; ++i) {
    const ServingMetrics& replica = cluster->replica_metrics[i];
    const std::string prefix = "cluster.replica" + std::to_string(i) + ".";
    registry.set_counter(prefix + "chips", replica.chips);
    registry.set_counter(prefix + "completed", replica.completed);
    registry.set_counter(prefix + "generated_tokens",
                         replica.generated_tokens);
    registry.set_gauge(prefix + "utilization", replica.mxu_utilization);
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
      registry.set_counter(prefix + "tensor_parallel_ways", tp.ways);
      registry.set_gauge(prefix + "tp_reference_latency_s", tp.latency);
      registry.set_gauge(prefix + "tp_reference_communication_s",
                         tp.communication_time);
    }
  }
}

/// Adds every field of `from` into `into`, through the struct's field table.
template <typename S>
void add_fields(const S& from, S* into) {
  S::for_each_field([&](const char*, auto member, const char*) {
    into->*member += from.*member;
  });
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
  cluster.replicas = n;
  cluster.disaggregated = config.disaggregated;
  cluster.num_requests = static_cast<std::int64_t>(requests.size());
  cluster.replica_metrics.reserve(n);

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
    for (const Request& request : requests) engine.inject(request);
    engine.drain();
    std::vector<std::size_t> positions(requests.size());
    std::iota(positions.begin(), positions.end(), std::size_t{0});
    std::vector<StitchedRequest> stitched(requests.size());
    stitch_outcomes(engine, positions, &stitched);
    cluster.replica_metrics.push_back(engine.finish());
    stitch_requests(requests, stitched, &cluster);
    finish_cluster(config, /*first_serving=*/0, &cluster);
    cluster.sim_wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
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

  std::vector<std::unique_ptr<ServingEngine>> engines;
  engines.reserve(n);
  for (int i = 0; i < n; ++i) {
    engines.push_back(std::make_unique<ServingEngine>(
        replica_scenario(config, i, /*multi_replica=*/true), shared_costs));
  }

  std::vector<StitchedRequest> stitched(requests.size());
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
    for (auto& engine : engines) engine->drain();
    for (int i = 0; i < n; ++i) {
      stitch_outcomes(*engines[i], injected[i], &stitched);
      cluster.replica_metrics.push_back(engines[i]->finish());
    }
    stitch_requests(requests, stitched, &cluster);
    finish_cluster(config, /*first_serving=*/0, &cluster);
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
          cluster.kv_transfer_bytes += bytes;
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
        Request clone = original;
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
        Request clone = original;
        clone.output_len = 1;
        clone.tpot_deadline = 0;  // no steady decode on this side
        engines[next_prefill]->inject(clone);
        injected[next_prefill].push_back(next_arrival);
        next_prefill = (next_prefill + 1) % num_prefill;
        next_arrival += 1;
      }
    }
    for (auto& engine : engines) engine->drain();

    // Stitch: TTFT (and arrival) from the prefill side, completion from
    // the decode side; an output_len == 1 request completes on the
    // prefill side outright.  A request is shed if EITHER side shed it —
    // a shed prefill never transfers, so its decode fields stay unset.
    for (int i = 0; i < n; ++i) {
      const bool prefill_side = i < num_prefill;
      const std::vector<ServingEngine::RequestOutcome> outcomes =
          engines[i]->outcomes();
      for (std::size_t k = 0; k < outcomes.size(); ++k) {
        const ServingEngine::RequestOutcome& outcome = outcomes[k];
        const std::size_t position = injected[i][k];
        StitchedRequest& row = stitched[position];
        if (prefill_side) {
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
      cluster.replica_metrics.push_back(engines[i]->finish());
    }
    stitch_requests(requests, stitched, &cluster);
    finish_cluster(config, /*first_serving=*/num_prefill, &cluster);
  }

  if (tracing) write_trace_files(*cluster_trace, {});
  cluster.sim_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return cluster;
}

ServingMetrics flatten_cluster_metrics(ClusterMetrics&& cluster) {
  ServingMetrics flat;
  flat.chips = cluster.total_chips;
  flat.num_requests = cluster.num_requests;
  flat.completed = cluster.completed;
  flat.generated_tokens = cluster.generated_tokens;
  flat.makespan = cluster.makespan;
  flat.ttft = cluster.ttft;
  flat.tpot = cluster.tpot;
  flat.e2e = cluster.e2e;
  flat.goodput_tokens_per_second = cluster.goodput_tokens_per_second;
  flat.slo_goodput_tokens_per_second = cluster.slo_goodput_tokens_per_second;
  flat.slo_met = cluster.slo_met;
  flat.slo_attainment = cluster.slo_attainment;
  flat.availability = cluster.availability;
  flat.prefix_hit_rate = cluster.prefix_hit_rate;
  double busy_chip_seconds = 0;
  for (const ServingMetrics& replica : cluster.replica_metrics) {
    flat.total_steps += replica.total_steps;
    flat.prefill_steps += replica.prefill_steps;
    flat.decode_steps += replica.decode_steps;
    flat.preemptions += replica.preemptions;
    add_fields(replica.counters, &flat.counters);
    add_fields(replica.fault, &flat.fault);
    flat.mxu_energy += replica.mxu_energy;
    flat.total_energy += replica.total_energy;
    flat.cost_cache_entries += replica.cost_cache_entries;
    flat.cost_cache_hits += replica.cost_cache_hits;
    flat.cost_cache_misses += replica.cost_cache_misses;
    flat.sim_end_seconds = std::max(flat.sim_end_seconds,
                                    replica.sim_end_seconds);
    busy_chip_seconds += replica.mxu_utilization * replica.makespan *
                         static_cast<double>(replica.chips);
  }
  if (flat.makespan > 0 && flat.chips > 0) {
    flat.mxu_utilization =
        busy_chip_seconds /
        (flat.makespan * static_cast<double>(flat.chips));
  }
  if (flat.generated_tokens > 0) {
    flat.energy_per_token =
        flat.total_energy / static_cast<double>(flat.generated_tokens);
  }
  flat.jain_fairness = cluster.jain_across_replicas;
  flat.registry = std::move(cluster.registry);
  flat.sim_wall_seconds = cluster.sim_wall_seconds;
  return flat;
}

}  // namespace cimtpu::serving
