// Quiet decode runs: ContinuousBatchScheduler::advance_quiet_decode(k)
// must leave the scheduler and the KV manager exactly where k next_step
// calls leave them.  Two schedulers are driven in lockstep on one request
// stream: one commits every quiet run in bulk, the other steps through it
// one step at a time.  After each run their audits, KV and scheduler
// counters, resident progress, and next StepRecord must agree — under
// every eviction policy, tight and roomy KV budgets, prefix caching, KV
// block sizes 1 and 16, cost buckets narrow enough that most runs end on a
// bucket crossing, and admission policies whose queue a run stands over.
//
// Both replicas run the same event-driven decode step, so the test also
// keeps its own per-decoder reference: each decoder's generated count,
// replayed from the stepped replica's StepRecords, must match the
// scheduler's progress and the KV manager's per-entry tokens and blocks
// after every step.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "serving/kv_cache_manager.h"
#include "serving/obs_registry.h"
#include "serving/request_gen.h"
#include "serving/scheduler.h"
#include "serving/serving_sim.h"

namespace cimtpu::serving {
namespace {

/// Scheduler steps per simulated second: maps arrival times onto the step
/// clock that releases requests to both replicas.
constexpr double kStepsPerSecond = 100.0;

struct Deployment {
  EvictionPolicy policy = EvictionPolicy::kPreemptNewest;
  double kv_tokens = 1e5;  ///< device budget (1 byte per token)
  bool prefix_cache = false;
  std::int64_t seqlen_bucket = 64;
  std::string admission = "fifo";
  int max_batch = 8;
  std::int64_t block_tokens = 1;  ///< KV page size
};

/// One scheduler and the KV manager it owns (KV constructed first).
struct Replica {
  explicit Replica(const Deployment& deployment)
      : kv(deployment.kv_tokens, /*bytes_per_token=*/1.0, deployment.policy,
           /*host_capacity=*/1e12, deployment.block_tokens,
           deployment.prefix_cache),
        scheduler(config_for(deployment), &kv) {}

  static SchedulerConfig config_for(const Deployment& deployment) {
    SchedulerConfig config;
    config.max_batch = deployment.max_batch;
    config.max_prefill_batch = 4;
    config.seqlen_bucket = deployment.seqlen_bucket;
    config.kv_block_tokens = deployment.block_tokens;
    config.enable_prefix_cache = deployment.prefix_cache;
    config.admission.policy = deployment.admission;
    return config;
  }

  KvCacheManager kv;
  ContinuousBatchScheduler scheduler;
};

std::vector<Request> lockstep_stream(std::uint64_t seed, bool prefixes) {
  RequestStreamConfig stream;
  stream.seed = seed;
  stream.num_requests = 60;
  stream.arrival_rate = 1.0;
  stream.prompt.kind = LengthDistribution::kUniform;
  stream.prompt.min_len = 32;
  stream.prompt.max_len = 300;
  stream.output.kind = LengthDistribution::kUniform;
  stream.output.min_len = 1;
  stream.output.max_len = 400;
  stream.priority_classes = 3;
  if (prefixes) {
    stream.prefix_pool_size = 4;
    stream.prefix_len_tokens = 64;
  }
  return generate_requests(stream);
}

std::int64_t arrival_step(const Request& request) {
  return static_cast<std::int64_t>(
      std::llround(request.arrival_time * kStepsPerSecond));
}

void expect_same_record(const StepRecord& a, const StepRecord& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.batch, b.batch);
  EXPECT_EQ(a.chunk_lens, b.chunk_lens);
  EXPECT_EQ(a.prev_lens, b.prev_lens);
  EXPECT_EQ(a.decode_groups, b.decode_groups);
  EXPECT_EQ(a.first_token_ids, b.first_token_ids);
  EXPECT_EQ(a.finished_ids, b.finished_ids);
  EXPECT_EQ(a.preempted_ids, b.preempted_ids);
  EXPECT_EQ(a.swapped_out_ids, b.swapped_out_ids);
  EXPECT_EQ(a.swapped_in_ids, b.swapped_in_ids);
  EXPECT_EQ(a.shed_ids, b.shed_ids);
  EXPECT_EQ(a.swap_bytes, b.swap_bytes);
  EXPECT_EQ(a.chunked, b.chunked);
}

/// Scheduler counters and KV gauges/counters, as their registry export.
std::string published_state(const Replica& replica) {
  ServingMetrics metrics;
  metrics.counters = replica.scheduler.counters();
  MetricsRegistry registry;
  publish_keys(metrics, &FieldKeys::engine, /*gate_open=*/false, "",
               &registry);
  replica.kv.publish(&registry);
  return registry.to_json();
}

void expect_same_state(const Replica& fast, const Replica& slow) {
  EXPECT_TRUE(fast.scheduler.aggregates_consistent());
  EXPECT_TRUE(slow.scheduler.aggregates_consistent());
  EXPECT_TRUE(fast.kv.audit());
  EXPECT_TRUE(slow.kv.audit());
  EXPECT_EQ(fast.kv.blocks_allocated_total(), slow.kv.blocks_allocated_total());
  EXPECT_EQ(fast.kv.occupied_blocks(), slow.kv.occupied_blocks());
  EXPECT_EQ(fast.kv.referenced_blocks(), slow.kv.referenced_blocks());
  EXPECT_EQ(published_state(fast), published_state(slow));
  EXPECT_EQ(fast.scheduler.decode_histogram(),
            slow.scheduler.decode_histogram());
  ASSERT_EQ(fast.scheduler.running_count(), slow.scheduler.running_count());
  for (std::size_t i = 0; i < fast.scheduler.running_count(); ++i) {
    const auto a = fast.scheduler.resident_info(i);
    const auto b = slow.scheduler.resident_info(i);
    EXPECT_EQ(a.request_id, b.request_id);
    EXPECT_EQ(a.prefilled, b.prefilled);
    EXPECT_EQ(a.generated, b.generated);
    EXPECT_EQ(a.prefix_skipped, b.prefix_skipped);
  }
}

/// Test-side per-decoder reference: each decoder's generated count,
/// replayed from StepRecords alone.  It is set to 1 at the first token,
/// gains 1 per decode step the decoder joins, is dropped on finish,
/// preemption or swap-out, and is restored on swap-in.
class DecoderReference {
 public:
  explicit DecoderReference(const std::vector<Request>& requests) {
    for (const Request& request : requests) {
      prompt_[request.id] = request.prompt_len;
    }
  }

  void apply(const StepRecord& record) {
    // Swap-ins enter before the step is built, evictions leave before its
    // decoders advance.
    for (std::int64_t id : record.swapped_in_ids) {
      const auto it = swapped_.find(id);
      if (it == swapped_.end()) continue;  // swapped out mid-prefill
      generated_[id] = it->second;
      swapped_.erase(it);
    }
    for (std::int64_t id : record.swapped_out_ids) {
      const auto it = generated_.find(id);
      if (it == generated_.end()) continue;
      swapped_[id] = it->second;
      generated_.erase(it);
    }
    for (std::int64_t id : record.preempted_ids) generated_.erase(id);
    if (record.kind == StepRecord::Kind::kDecode) {
      EXPECT_EQ(static_cast<std::int64_t>(generated_.size()), record.batch);
      for (auto& [id, generated] : generated_) ++generated;
    }
    for (std::int64_t id : record.first_token_ids) generated_[id] = 1;
    for (std::int64_t id : record.finished_ids) generated_.erase(id);
  }

  /// Checks the replica's resident progress and KV entries against the
  /// reference, and audits the KV manager.
  void expect_matches(const Replica& replica) const {
    const std::int64_t block = replica.kv.block_tokens();
    std::size_t decoders = 0;
    for (std::size_t i = 0; i < replica.scheduler.running_count(); ++i) {
      const auto info = replica.scheduler.resident_info(i);
      const auto it = generated_.find(info.request_id);
      if (it == generated_.end()) {
        EXPECT_EQ(info.generated, 0) << "request " << info.request_id;
        continue;
      }
      ++decoders;
      const std::int64_t tokens = prompt_.at(info.request_id) + it->second;
      EXPECT_EQ(info.generated, it->second) << "request " << info.request_id;
      const KvCacheManager::Inspection entry =
          replica.kv.inspect(info.request_id);
      EXPECT_EQ(entry.tokens, tokens) << "request " << info.request_id;
      EXPECT_EQ(entry.blocks, (tokens + block - 1) / block)
          << "request " << info.request_id;
    }
    EXPECT_EQ(decoders, generated_.size());
    EXPECT_EQ(replica.scheduler.resident_decoder_count(),
              static_cast<std::int64_t>(decoders));
    EXPECT_TRUE(replica.kv.audit());
  }

 private:
  std::map<std::int64_t, std::int64_t> prompt_;
  std::map<std::int64_t, std::int64_t> generated_;  ///< resident decoders
  std::map<std::int64_t, std::int64_t> swapped_;    ///< swapped-out decoders
};

struct LockstepResult {
  std::int64_t steps = 0;           ///< per-step calls on the slow replica
  std::int64_t fast_forwarded = 0;  ///< of those, committed in bulk by fast
  std::int64_t crossing_runs = 0;   ///< bulk runs that ended on a crossing
  std::int64_t preemptions = 0;
  /// Of fast_forwarded, the steps committed while work waited or sat
  /// swapped out.
  std::int64_t fast_forwarded_past_queue = 0;
  std::int64_t waits = 0;  ///< run checks made while work waited
};

LockstepResult run_lockstep(const Deployment& deployment, std::uint64_t seed) {
  const std::vector<Request> requests =
      lockstep_stream(seed, deployment.prefix_cache);
  Replica fast(deployment);
  Replica slow(deployment);
  DecoderReference reference(requests);
  StepRecord fast_record;
  StepRecord slow_record;
  LockstepResult result;
  std::size_t next = 0;
  std::int64_t clock = 0;  // shared step clock that releases arrivals
  for (;;) {
    while (next < requests.size() && arrival_step(requests[next]) <= clock) {
      fast.scheduler.enqueue(requests[next]);
      slow.scheduler.enqueue(requests[next]);
      ++next;
    }
    std::int64_t quiet = fast.scheduler.quiet_decode_steps();
    EXPECT_EQ(quiet, slow.scheduler.quiet_decode_steps());
    const bool work_waits = fast.scheduler.waiting_count() > 0 ||
                            fast.scheduler.swapped_count() > 0;
    if (work_waits) ++result.waits;
    // Like the serving engine, end the run where the next arrival lands.
    if (next < requests.size()) {
      quiet = std::min(quiet, arrival_step(requests[next]) - clock);
    }
    if (quiet > 0) {
      const auto groups = fast.scheduler.decode_histogram();
      fast.scheduler.advance_quiet_decode(quiet);
      for (std::int64_t i = 0; i < quiet; ++i) {
        EXPECT_TRUE(slow.scheduler.next_step(&slow_record));
        // Every stepped-through quiet step is an uneventful decode step
        // over the grouping the run started with.
        EXPECT_EQ(slow_record.kind, StepRecord::Kind::kDecode);
        EXPECT_EQ(slow_record.decode_groups, groups);
        EXPECT_TRUE(slow_record.finished_ids.empty());
        EXPECT_TRUE(slow_record.preempted_ids.empty());
        EXPECT_TRUE(slow_record.swapped_out_ids.empty());
        EXPECT_TRUE(slow_record.swapped_in_ids.empty());
        EXPECT_TRUE(slow_record.first_token_ids.empty());
        EXPECT_TRUE(slow_record.shed_ids.empty());
        reference.apply(slow_record);
        reference.expect_matches(slow);
      }
      reference.expect_matches(fast);
      clock += quiet;
      result.steps += quiet;
      result.fast_forwarded += quiet;
      if (work_waits) result.fast_forwarded_past_queue += quiet;
      // A run finishes and admits nothing, so a new grouping after it
      // means some decoder's last step was its bucket crossing.
      if (fast.scheduler.decode_histogram() != groups) ++result.crossing_runs;
      expect_same_state(fast, slow);
      if (::testing::Test::HasFailure()) return result;
    }
    const bool fast_stepped = fast.scheduler.next_step(&fast_record);
    const bool slow_stepped = slow.scheduler.next_step(&slow_record);
    EXPECT_EQ(fast_stepped, slow_stepped);
    expect_same_record(fast_record, slow_record);
    reference.apply(slow_record);
    reference.expect_matches(slow);
    reference.expect_matches(fast);
    if (::testing::Test::HasFailure()) return result;
    if (fast_stepped) {
      ++clock;
      ++result.steps;
    } else if (next < requests.size()) {
      clock = arrival_step(requests[next]);  // idle until the next arrival
    } else {
      break;
    }
  }
  expect_same_state(fast, slow);
  EXPECT_TRUE(fast.scheduler.idle());
  result.preemptions = fast.scheduler.counters().total_preemptions();
  return result;
}

std::string deployment_name(const Deployment& deployment, std::uint64_t seed) {
  return eviction_policy_name(deployment.policy) +
         " kv=" + std::to_string(static_cast<long long>(deployment.kv_tokens)) +
         (deployment.prefix_cache ? " prefix_cache" : "") +
         " block=" + std::to_string(deployment.block_tokens) +
         " bucket=" + std::to_string(deployment.seqlen_bucket) +
         " admission=" + deployment.admission +
         " max_batch=" + std::to_string(deployment.max_batch) +
         " seed=" + std::to_string(seed);
}

TEST(QuietDecodeLockstep, BulkAdvanceMatchesPerStepUnderEveryPolicy) {
  std::int64_t pressured_preemptions = 0;
  for (EvictionPolicy policy :
       {EvictionPolicy::kPreemptNewest, EvictionPolicy::kSwapToHost,
        EvictionPolicy::kPriorityVictim}) {
    for (double kv_tokens : {1200.0, 1e5}) {
      for (std::uint64_t seed : {1u, 7u, 42u}) {
        const Deployment deployment{policy, kv_tokens, /*prefix_cache=*/false};
        SCOPED_TRACE(deployment_name(deployment, seed));
        const LockstepResult result = run_lockstep(deployment, seed);
        ASSERT_FALSE(::testing::Test::HasFailure());
        // The fast path must actually engage; with room to spare, most
        // steps of a light stream are quiet.
        EXPECT_GT(result.fast_forwarded, 0);
        if (kv_tokens < 1e5) {
          pressured_preemptions += result.preemptions;
        } else {
          EXPECT_GT(result.fast_forwarded, result.steps / 2);
        }
      }
    }
  }
  // The tight budget interleaves quiet runs with evictions.
  EXPECT_GT(pressured_preemptions, 0);
}

TEST(QuietDecodeLockstep, BulkAdvanceMatchesPerStepAcrossBlockSizes) {
  // At block 16 a decoder allocates on one step in 16, so a step's growth
  // is counted by clock phase, and with prefix caching, growth may reclaim
  // cached blocks between finisher releases.  The reference checks every
  // decoder's tokens and blocks after every step.
  for (std::int64_t block : {1, 16}) {
    for (EvictionPolicy policy :
         {EvictionPolicy::kPreemptNewest, EvictionPolicy::kSwapToHost,
          EvictionPolicy::kPriorityVictim}) {
      for (double kv_tokens : {1200.0, 1e5}) {
        Deployment deployment;
        deployment.policy = policy;
        deployment.kv_tokens = kv_tokens;
        deployment.prefix_cache = block > 1;
        deployment.block_tokens = block;
        for (std::uint64_t seed : {1u, 7u}) {
          SCOPED_TRACE(deployment_name(deployment, seed));
          const LockstepResult result = run_lockstep(deployment, seed);
          ASSERT_FALSE(::testing::Test::HasFailure());
          EXPECT_GT(result.fast_forwarded, 0);
        }
      }
    }
  }
}

TEST(QuietDecodeLockstep, BulkAdvanceMatchesPerStepWithCachedPrefixBlocks) {
  // Released prefix blocks stay cached (occupied but unreferenced): the
  // quiet-run headroom must exclude them, so no bulk grow ever reclaims.
  for (std::uint64_t seed : {3u, 11u}) {
    const Deployment deployment{EvictionPolicy::kPreemptNewest, 2000.0,
                      /*prefix_cache=*/true};
    SCOPED_TRACE(deployment_name(deployment, seed));
    const LockstepResult result = run_lockstep(deployment, seed);
    ASSERT_FALSE(::testing::Test::HasFailure());
    EXPECT_GT(result.fast_forwarded, 0);
  }
}

TEST(QuietDecodeLockstep, RunsEndingOnBucketCrossingsMatchPerStep) {
  // Narrow buckets make crossings frequent: at bucket 1 every step
  // crosses, so every run is one crossing step.  The bulk commit must move
  // each crossing decoder to its next bucket exactly as next_step does
  // (expect_same_state audits the histogram after every run).
  for (std::int64_t bucket : {1, 4, 16}) {
    for (EvictionPolicy policy :
         {EvictionPolicy::kPreemptNewest, EvictionPolicy::kPriorityVictim}) {
      const Deployment deployment{policy, 1e5, /*prefix_cache=*/false,
                                  bucket};
      SCOPED_TRACE(deployment_name(deployment, 42));
      const LockstepResult result = run_lockstep(deployment, 42);
      ASSERT_FALSE(::testing::Test::HasFailure());
      EXPECT_GT(result.fast_forwarded, 0);
      EXPECT_GT(result.crossing_runs, 0);
    }
  }
}

TEST(QuietDecodeLockstep, BulkRunsThroughBlockedWorkMatchPerStep) {
  // Under KV pressure the queue never empties; quiet runs go on past the
  // head-of-line block (the fifo and wfq memo) and, under swap_to_host,
  // past a swapped front below the swap-in watermark.  A roomy budget with
  // two batch slots covers the full-batch lock.
  std::vector<Deployment> deployments;
  for (EvictionPolicy policy :
       {EvictionPolicy::kPreemptNewest, EvictionPolicy::kSwapToHost,
        EvictionPolicy::kPriorityVictim}) {
    Deployment deployment;
    deployment.policy = policy;
    deployment.kv_tokens = 1200.0;
    deployments.push_back(deployment);
  }
  Deployment wfq_pressured;
  wfq_pressured.admission = "wfq";
  wfq_pressured.kv_tokens = 1200.0;
  deployments.push_back(wfq_pressured);
  Deployment full_batch;
  full_batch.admission = "wfq";
  full_batch.max_batch = 2;
  deployments.push_back(full_batch);
  for (const Deployment& deployment : deployments) {
    for (std::uint64_t seed : {1u, 7u, 42u}) {
      SCOPED_TRACE(deployment_name(deployment, seed));
      const LockstepResult result = run_lockstep(deployment, seed);
      ASSERT_FALSE(::testing::Test::HasFailure());
      EXPECT_GT(result.fast_forwarded_past_queue, 0);
    }
  }
}

TEST(QuietDecodeLockstep, QuietRunStandsOverAnOversizedWaiter) {
  Deployment deployment;
  deployment.kv_tokens = 60.0;
  Replica replica(deployment);
  Request decoder;
  decoder.id = 0;
  decoder.prompt_len = 40;
  decoder.output_len = 100;
  replica.scheduler.enqueue(decoder);
  StepRecord record;
  ASSERT_TRUE(replica.scheduler.next_step(&record));  // prefill: 41 blocks
  // Reserving prompt + 1 = 31 blocks does not fit the 19 free ones.
  Request waiter;
  waiter.id = 1;
  waiter.prompt_len = 30;
  waiter.output_len = 10;
  replica.scheduler.enqueue(waiter);
  EXPECT_EQ(replica.scheduler.quiet_decode_steps(), 0);  // not probed yet
  ASSERT_TRUE(replica.scheduler.next_step(&record));  // probe fails; decode
  ASSERT_EQ(record.kind, StepRecord::Kind::kDecode);
  EXPECT_EQ(replica.scheduler.waiting_count(), 1u);
  // Decoding at kv_len 42 with 60 - 42 = 18 free blocks: min(headroom 18,
  // finish 100 - 2 - 1 = 97, bucket 64 - 42 + 1 = 23).
  EXPECT_EQ(replica.scheduler.quiet_decode_steps(), 18);
  replica.scheduler.advance_quiet_decode(18);
  EXPECT_EQ(replica.scheduler.waiting_count(), 1u);
  EXPECT_EQ(replica.scheduler.quiet_decode_steps(), 0);  // no headroom left
  EXPECT_TRUE(replica.kv.audit());
  EXPECT_TRUE(replica.scheduler.aggregates_consistent());
}

TEST(QuietDecodeLockstep, EdfStaysPerStepWhileWorkWaits) {
  // EDF sheds on the clock, so a queue always forces per-step planning,
  // under KV pressure and with the batch full alike.
  Deployment pressured;
  pressured.kv_tokens = 1200.0;
  pressured.admission = "edf";
  Deployment full_batch;
  full_batch.admission = "edf";
  full_batch.max_batch = 2;
  for (const Deployment& deployment : {pressured, full_batch}) {
    SCOPED_TRACE(deployment_name(deployment, 42));
    const LockstepResult result = run_lockstep(deployment, 42);
    ASSERT_FALSE(::testing::Test::HasFailure());
    EXPECT_GT(result.waits, 0);
    EXPECT_EQ(result.fast_forwarded_past_queue, 0);
    EXPECT_GT(result.fast_forwarded, 0);
  }
}

TEST(QuietDecodeLockstep, NoQuietStepsWhileWorkWaitsOrTracing) {
  const Deployment deployment;
  Replica replica(deployment);
  Request request;
  request.id = 0;
  request.prompt_len = 40;
  request.output_len = 100;
  replica.scheduler.enqueue(request);
  EXPECT_EQ(replica.scheduler.quiet_decode_steps(), 0);  // waiting
  StepRecord record;
  ASSERT_TRUE(replica.scheduler.next_step(&record));  // prefill
  // Decoding alone at kv_len 41 in bucket 64: 23 steps to the crossing,
  // plus the crossing step itself (it still attends inside bucket 64).
  EXPECT_EQ(replica.scheduler.quiet_decode_steps(), 64 - 41 + 1);
  request.id = 1;
  replica.scheduler.enqueue(request);
  EXPECT_EQ(replica.scheduler.quiet_decode_steps(), 0);  // arrival waiting
  ASSERT_TRUE(replica.scheduler.next_step(&record));  // admits + prefills 1
  ASSERT_TRUE(replica.scheduler.next_step(&record));  // decode
  EXPECT_GT(replica.scheduler.quiet_decode_steps(), 0);
  ServingTrace trace;
  replica.scheduler.set_trace_sink(&trace);
  EXPECT_EQ(replica.scheduler.quiet_decode_steps(), 0);  // per-step events
}

}  // namespace
}  // namespace cimtpu::serving
