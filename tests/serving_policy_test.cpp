// Serving policy hardening suite: KV-page accounting invariants across
// admit/grow/preempt/swap/finish, chunked-prefill token and cost
// conservation, per-policy preemption behaviour (recompute vs swap vs
// priority-victim), per-sequence attention costing, and golden-metrics
// regression pins for one fixed seed per (policy x chunked on/off).
//
// The invariant tests drive the scheduler directly with byte-per-token
// accounting so every step can be audited; the golden tests replay the
// canonical pressured llama2-7b deployment (traffic_profiles.h) end to
// end.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <optional>
#include <set>

#include "expect_identical_metrics.h"
#include "models/model_zoo.h"
#include "serving/admission_policy.h"
#include "serving/kv_cache_manager.h"
#include "serving/metrics.h"
#include "serving/request_gen.h"
#include "serving/scheduler.h"
#include "serving/serving_sim.h"
#include "serving/traffic_profiles.h"

namespace cimtpu::serving {
namespace {

Request make_request(std::int64_t id, std::int64_t prompt, std::int64_t output,
                     std::int64_t priority = 0, Seconds arrival = 0) {
  Request request;
  request.id = id;
  request.arrival_time = arrival;
  request.prompt_len = prompt;
  request.output_len = output;
  request.priority = priority;
  return request;
}

// --- KV cache manager: swap + priority unit behaviour ------------------------

TEST(KvSwapTest, SwapOutMovesBytesToHostAndBack) {
  KvCacheManager kv(/*capacity=*/100.0, /*bytes_per_token=*/1.0,
                    EvictionPolicy::kSwapToHost, /*host_capacity=*/50.0);
  EXPECT_TRUE(kv.try_admit(0, 40));
  const std::optional<std::int32_t> slot = kv.try_admit(1, 30);
  ASSERT_TRUE(slot);
  EXPECT_TRUE(kv.try_swap_out_slot(*slot));
  EXPECT_FALSE(kv.inspect(1).resident);
  EXPECT_TRUE(kv.inspect(1).swapped);
  EXPECT_EQ(kv.swapped_tokens(1), 30);
  EXPECT_EQ(kv.referenced_blocks(), 40);
  EXPECT_EQ(kv.inspect().host_used_blocks, 30);
  EXPECT_TRUE(kv.audit());
  // Device room frees -> the pages come home, token count intact.
  EXPECT_TRUE(kv.try_swap_in(1));
  EXPECT_TRUE(kv.inspect(1).resident);
  EXPECT_FALSE(kv.inspect(1).swapped);
  EXPECT_EQ(kv.inspect(1).tokens, 30);
  EXPECT_EQ(kv.inspect().host_used_blocks, 0);
  EXPECT_TRUE(kv.audit());
}

TEST(KvSwapTest, SwapOutRespectsHostCapacity) {
  KvCacheManager kv(100.0, 1.0, EvictionPolicy::kSwapToHost,
                    /*host_capacity=*/25.0);
  const std::optional<std::int32_t> r0 = kv.try_admit(0, 20);
  const std::optional<std::int32_t> r1 = kv.try_admit(1, 30);
  ASSERT_TRUE(r0 && r1);
  EXPECT_TRUE(kv.try_swap_out_slot(*r0));   // 20 <= 25 fits
  EXPECT_FALSE(kv.try_swap_out_slot(*r1));  // 20 + 30 > 25: host pool full
  EXPECT_TRUE(kv.inspect(1).resident);      // nothing moved on failure
  EXPECT_EQ(kv.referenced_blocks(), 30);
  EXPECT_EQ(kv.inspect().host_used_blocks, 20);
  EXPECT_TRUE(kv.audit());
}

TEST(KvSwapTest, SwapInFailsWhenDeviceFull) {
  KvCacheManager kv(50.0, 1.0, EvictionPolicy::kSwapToHost);
  const std::optional<std::int32_t> r0 = kv.try_admit(0, 30);
  ASSERT_TRUE(r0);
  EXPECT_TRUE(kv.try_swap_out_slot(*r0));
  const std::optional<std::int32_t> r1 = kv.try_admit(1, 40);
  ASSERT_TRUE(r1);
  EXPECT_FALSE(kv.try_swap_in(0));  // 40 + 30 > 50: stays on the host
  EXPECT_TRUE(kv.inspect(0).swapped);
  kv.release_slot(*r1);
  EXPECT_TRUE(kv.try_swap_in(0));
  EXPECT_TRUE(kv.audit());
}

TEST(KvSwapTest, SwapInCountsAsNewestAdmission) {
  KvCacheManager kv(100.0, 1.0, EvictionPolicy::kSwapToHost);
  const std::optional<std::int32_t> r0 = kv.try_admit(0, 10);
  ASSERT_TRUE(r0);
  EXPECT_TRUE(kv.try_admit(1, 10));
  EXPECT_TRUE(kv.try_swap_out_slot(*r0));
  EXPECT_TRUE(kv.try_swap_in(0));
  // 0 re-entered after 1, so it is now the newest -> first victim.
  EXPECT_EQ(kv.pick_eviction_victim(), 0);
}

TEST(KvPriorityTest, VictimIsLowestPriorityThenLargestKv) {
  KvCacheManager kv(1000.0, 1.0, EvictionPolicy::kPriorityVictim);
  const std::optional<std::int32_t> r0 = kv.try_admit(0, 50, /*priority=*/2);
  const std::optional<std::int32_t> r1 = kv.try_admit(1, 80, /*priority=*/0);
  const std::optional<std::int32_t> r2 = kv.try_admit(2, 120, /*priority=*/0);
  ASSERT_TRUE(r0 && r1 && r2);
  EXPECT_TRUE(kv.try_admit(3, 200, /*priority=*/5));
  // Lowest priority class first; among {1, 2} the larger footprint goes.
  EXPECT_EQ(kv.pick_eviction_victim(), 2);
  kv.release_slot(*r2);
  EXPECT_EQ(kv.pick_eviction_victim(), 1);
  kv.release_slot(*r1);
  // The oldest resident (id 0) is exempt for forward progress, so the
  // high-priority newcomer is the only eligible victim.
  EXPECT_EQ(kv.pick_eviction_victim(), 3);
  // A sole resident is evictable: the exemption needs a second one.
  kv.release_slot(kv.find_slot(3));
  EXPECT_EQ(kv.pick_eviction_victim(), 0);
}

TEST(KvPriorityTest, EqualPrioritiesAndSizesFallBackToNewest) {
  KvCacheManager kv(1000.0, 1.0, EvictionPolicy::kPriorityVictim);
  EXPECT_TRUE(kv.try_admit(7, 50, 1));
  EXPECT_TRUE(kv.try_admit(8, 50, 1));
  const std::optional<std::int32_t> newest = kv.try_admit(9, 50, 1);
  ASSERT_TRUE(newest);
  EXPECT_EQ(kv.pick_eviction_victim(), 9);  // newest admission
  kv.release_slot(*newest);
  EXPECT_EQ(kv.pick_eviction_victim(), 8);
}

TEST(KvPolicyTest, PolicyNamesAreStable) {
  EXPECT_EQ(eviction_policy_name(EvictionPolicy::kPreemptNewest),
            "preempt_newest");
  EXPECT_EQ(eviction_policy_name(EvictionPolicy::kSwapToHost), "swap_to_host");
  EXPECT_EQ(eviction_policy_name(EvictionPolicy::kPriorityVictim),
            "priority_victim");
}

TEST(KvPolicyTest, AuditBalancesAcrossChurn) {
  // Admissions, swaps and releases by slot, and decode growth through the
  // advance clock: one entry at a time advances a token whenever its next
  // block fits, as a decode step does.
  KvCacheManager kv(500.0, 1.0, EvictionPolicy::kSwapToHost);
  Rng rng(99);
  std::map<std::int64_t, std::int32_t> device;  // id -> slot
  std::set<std::int64_t> host;
  for (std::int64_t id = 0; id < 400; ++id) {
    const std::int64_t op = rng.uniform_int(0, 3);
    if (op == 0 || device.empty()) {
      const std::optional<std::int32_t> slot =
          kv.try_admit(id, rng.uniform_int(1, 40));
      if (slot) device[id] = *slot;
    } else if (op == 1) {
      const std::int32_t slot = device.begin()->second;
      kv.begin_advance(slot);
      if (kv.fits_blocks(kv.advance_growth_blocks())) kv.advance(1);
      kv.end_advance(slot);
    } else if (op == 2) {
      const auto target = std::prev(device.end());
      if (kv.try_swap_out_slot(target->second)) {
        host.insert(target->first);
        device.erase(target);
      }
    } else {
      kv.release_slot(device.begin()->second);
      device.erase(device.begin());
    }
    if (!host.empty()) {
      const std::optional<std::int32_t> slot = kv.try_swap_in(*host.begin());
      if (slot) {
        device[*host.begin()] = *slot;
        host.erase(host.begin());
      }
    }
    ASSERT_TRUE(kv.audit()) << "accounting drifted at op " << id;
    ASSERT_EQ(kv.inspect().resident_entries,
              static_cast<std::int64_t>(device.size()));
    ASSERT_EQ(kv.inspect().swapped_entries,
              static_cast<std::int64_t>(host.size()));
  }
  for (const auto& [id, slot] : device) kv.release_slot(slot);
  for (std::int64_t id : host) {
    const std::optional<std::int32_t> slot = kv.try_swap_in(id);
    ASSERT_TRUE(slot);  // empty device always fits them
    kv.release_slot(*slot);
  }
  EXPECT_EQ(kv.referenced_blocks(), 0);
  EXPECT_EQ(kv.inspect().host_used_blocks, 0);
  EXPECT_TRUE(kv.audit());
}

// --- Scheduler config --------------------------------------------------------

TEST(SchedulerConfigTest, RejectsChunkSmallerThanBucket) {
  KvCacheManager kv(1e6, 1.0);
  SchedulerConfig config;
  config.seqlen_bucket = 128;
  config.prefill_chunk_tokens = 64;  // < bucket: chunks could cost zero
  EXPECT_THROW(ContinuousBatchScheduler(config, &kv), ConfigError);
  config.prefill_chunk_tokens = 128;
  EXPECT_NO_THROW(ContinuousBatchScheduler(config, &kv));
  config.prefill_chunk_tokens = 0;  // disabled is always fine
  EXPECT_NO_THROW(ContinuousBatchScheduler(config, &kv));
}

TEST(RequestGenPriorityTest, ClassesBoundedAndDecoupledFromLengths) {
  RequestStreamConfig base = zipf_chat_stream(11, 300, 20.0);
  RequestStreamConfig tagged = zipf_chat_stream(11, 300, 20.0,
                                                /*priority_classes=*/4);
  const auto plain = generate_requests(base);
  const auto prioritized = generate_requests(tagged);
  ASSERT_EQ(plain.size(), prioritized.size());
  std::set<std::int64_t> seen;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    // Priorities come from a decoupled rng stream: arrivals and lengths
    // are bit-identical whatever the class count.
    EXPECT_EQ(plain[i].arrival_time, prioritized[i].arrival_time);
    EXPECT_EQ(plain[i].prompt_len, prioritized[i].prompt_len);
    EXPECT_EQ(plain[i].output_len, prioritized[i].output_len);
    EXPECT_EQ(plain[i].priority, 0);
    EXPECT_GE(prioritized[i].priority, 0);
    EXPECT_LT(prioritized[i].priority, 4);
    seen.insert(prioritized[i].priority);
  }
  EXPECT_EQ(seen.size(), 4u);  // all classes drawn over 300 requests

  RequestStreamConfig bad = base;
  bad.priority_classes = 0;
  EXPECT_THROW(generate_requests(bad), ConfigError);
}

// --- Chunked prefill: hand traces and conservation ---------------------------

TEST(ChunkedPrefillTest, SingleRequestHandTrace) {
  // Prompt 300 with chunk budget 128: three chunk steps (128, 128, 44),
  // the last emitting the first token, then two decode steps.
  KvCacheManager kv(1e6, 1.0);
  SchedulerConfig config;
  config.prefill_chunk_tokens = 128;
  ContinuousBatchScheduler scheduler(config, &kv);
  scheduler.enqueue(make_request(0, 300, 3));

  StepRecord step;
  ASSERT_TRUE(scheduler.next_step(&step));
  EXPECT_EQ(step.kind, StepRecord::Kind::kPrefill);
  EXPECT_EQ(step.chunk_lens, (std::vector<std::int64_t>{128}));
  EXPECT_EQ(step.prev_lens, (std::vector<std::int64_t>{0}));
  EXPECT_TRUE(step.chunked);
  EXPECT_TRUE(step.first_token_ids.empty());  // prompt not done yet

  ASSERT_TRUE(scheduler.next_step(&step));
  EXPECT_EQ(step.prev_lens, (std::vector<std::int64_t>{128}));
  EXPECT_EQ(step.chunk_lens, (std::vector<std::int64_t>{128}));

  ASSERT_TRUE(scheduler.next_step(&step));
  EXPECT_EQ(step.prev_lens, (std::vector<std::int64_t>{256}));
  EXPECT_EQ(step.chunk_lens, (std::vector<std::int64_t>{44}));
  EXPECT_EQ(step.first_token_ids, (std::vector<std::int64_t>{0}));

  // Decode records carry only the grouping; the scheduler derives the
  // per-participant KV lengths the next decode step attends over.
  EXPECT_EQ(scheduler.decode_kv_lens(), (std::vector<std::int64_t>{301}));
  ASSERT_TRUE(scheduler.next_step(&step));
  EXPECT_EQ(step.kind, StepRecord::Kind::kDecode);
  EXPECT_TRUE(step.chunk_lens.empty());
  EXPECT_TRUE(step.prev_lens.empty());
  EXPECT_EQ(step.decode_groups,
            (std::vector<std::pair<std::int64_t, std::int64_t>>{{384, 1}}));
  EXPECT_EQ(scheduler.decode_kv_lens(), (std::vector<std::int64_t>{302}));
  ASSERT_TRUE(scheduler.next_step(&step));
  EXPECT_EQ(step.finished_ids, (std::vector<std::int64_t>{0}));
  EXPECT_TRUE(scheduler.idle());
  EXPECT_EQ(scheduler.counters().chunked_prefill_steps, 3);
  EXPECT_EQ(kv.referenced_blocks(), 0);
}

TEST(ChunkedPrefillTest, InterleavesWithDecodeSteps) {
  // A short request decodes while a 1024-token prompt streams through in
  // 128-token chunks: steps strictly alternate prefill/decode while both
  // kinds of work exist, so TPOT stays bounded during long prefills.
  KvCacheManager kv(1e6, 1.0);
  SchedulerConfig config;
  config.prefill_chunk_tokens = 128;
  ContinuousBatchScheduler scheduler(config, &kv);
  scheduler.enqueue(make_request(0, 128, 10));
  scheduler.enqueue(make_request(1, 1024, 2));

  std::vector<StepRecord::Kind> kinds;
  std::vector<std::int64_t> finished;
  for (StepRecord step; scheduler.next_step(&step);) {
    kinds.push_back(step.kind);
    for (std::int64_t id : step.finished_ids) finished.push_back(id);
  }
  // Step 1 prefills r0 whole (single 128-token chunk).  From then on,
  // while r0 decodes and r1 prefills, kinds alternate strictly.
  ASSERT_GE(kinds.size(), 17u);
  EXPECT_EQ(kinds[0], StepRecord::Kind::kPrefill);
  for (std::size_t i = 1; i + 1 < 17; i += 2) {
    EXPECT_EQ(kinds[i], StepRecord::Kind::kDecode) << "step " << i;
    EXPECT_EQ(kinds[i + 1], StepRecord::Kind::kPrefill) << "step " << i + 1;
  }
  EXPECT_EQ(finished, (std::vector<std::int64_t>{0, 1}));
}

TEST(ChunkedPrefillTest, BudgetAndPrefillBatchRespected) {
  KvCacheManager kv(1e6, 1.0);
  SchedulerConfig config;
  config.prefill_chunk_tokens = 256;
  config.max_prefill_batch = 3;
  ContinuousBatchScheduler scheduler(config, &kv);
  for (std::int64_t id = 0; id < 12; ++id) {
    scheduler.enqueue(make_request(id, 100 + 37 * id, 4));
  }
  for (StepRecord step; scheduler.next_step(&step);) {
    if (step.kind != StepRecord::Kind::kPrefill) continue;
    std::int64_t chunk_total = 0;
    for (std::int64_t chunk : step.chunk_lens) chunk_total += chunk;
    EXPECT_LE(chunk_total, 256);
    EXPECT_LE(step.batch, 3);
  }
  EXPECT_TRUE(scheduler.idle());
}

/// Drives a scheduler to completion, tracking per-request prefill work and
/// auditing KV accounting after every step.
struct DriveResult {
  std::int64_t total_prefill_tokens = 0;  ///< chunk tokens across the run
  std::map<std::int64_t, std::int64_t> finish_count;
  std::map<std::int64_t, std::int64_t> first_token_count;
  std::int64_t steps = 0;
  ServingCounters counters;
};

DriveResult drive_to_completion(const std::vector<Request>& requests,
                                EvictionPolicy policy,
                                std::int64_t chunk_tokens, Bytes kv_budget,
                                Bytes host_capacity = 1e12,
                                const AdmissionConfig& admission = {}) {
  KvCacheManager kv(kv_budget, /*bytes_per_token=*/1.0, policy, host_capacity);
  SchedulerConfig config;
  config.prefill_chunk_tokens = chunk_tokens;
  config.admission = admission;
  ContinuousBatchScheduler scheduler(config, &kv);
  for (const Request& request : requests) scheduler.enqueue(request);

  DriveResult result;
  for (StepRecord step; scheduler.next_step(&step);) {
    ++result.steps;
    if (step.kind == StepRecord::Kind::kPrefill) {
      // StepRecord carries shapes, not participant ids, so conservation is
      // checked on the global chunk-token total (per-request completion is
      // covered by first_token/finish counts).
      for (std::int64_t chunk : step.chunk_lens) {
        result.total_prefill_tokens += chunk;
      }
    }
    for (std::int64_t id : step.first_token_ids) {
      ++result.first_token_count[id];
    }
    for (std::int64_t id : step.finished_ids) ++result.finish_count[id];
    // --- Accounting invariants, every step -------------------------------
    EXPECT_TRUE(kv.audit());
    EXPECT_LE(kv.referenced_blocks(), kv.capacity_blocks());
    EXPECT_EQ(kv.inspect().resident_entries,
              static_cast<std::int64_t>(scheduler.running_count()));
    EXPECT_EQ(kv.inspect().swapped_entries,
              static_cast<std::int64_t>(scheduler.swapped_count()));
    // The scheduler's incremental decoder aggregates must match a fresh
    // rescan after every transition (admit / prefill-complete / advance /
    // finish / preempt / swap): catches drift at the step that caused it.
    EXPECT_TRUE(scheduler.aggregates_consistent());
  }
  EXPECT_TRUE(scheduler.idle());
  EXPECT_EQ(kv.referenced_blocks(), 0);
  const KvCacheManager::Inspection empty = kv.inspect();
  EXPECT_EQ(empty.host_used_blocks, 0);
  EXPECT_EQ(empty.resident_entries, 0);
  EXPECT_EQ(empty.swapped_entries, 0);
  result.counters = scheduler.counters();
  return result;
}

std::vector<Request> invariant_stream(std::uint64_t seed, std::int64_t n) {
  RequestStreamConfig stream;
  stream.seed = seed;
  stream.num_requests = n;
  stream.arrival_rate = 1000.0;  // arrivals effectively simultaneous
  stream.prompt.kind = LengthDistribution::kUniform;
  stream.prompt.min_len = 32;
  stream.prompt.max_len = 160;
  stream.output.kind = LengthDistribution::kUniform;
  stream.output.min_len = 8;
  stream.output.max_len = 96;
  stream.priority_classes = 3;
  stream.num_tenants = 2;  // decoupled stream: arrivals/lengths unchanged
  return generate_requests(stream);
}

/// Shared invariant body: KV pages never leak or double-free, every
/// request finishes exactly once, under 3 distinct seeds x chunked on/off.
void check_policy_invariants(EvictionPolicy policy, bool expect_no_recompute) {
  for (std::uint64_t seed : {3ull, 17ull, 101ull}) {
    for (std::int64_t chunk : {std::int64_t{0}, std::int64_t{128}}) {
      const auto requests = invariant_stream(seed, 60);
      std::int64_t total_prompt = 0;
      for (const Request& request : requests) total_prompt += request.prompt_len;
      // Budget of 600 tokens: admits any single request (<= 161 reserve,
      // <= 256 fully grown) but far below 60 concurrent sequences.
      DriveResult result =
          drive_to_completion(requests, policy, chunk, /*kv_budget=*/600.0);
      for (const Request& request : requests) {
        EXPECT_EQ(result.finish_count[request.id], 1)
            << "seed " << seed << " chunk " << chunk << " request "
            << request.id;
        EXPECT_GE(result.first_token_count[request.id], 1);
      }
      EXPECT_GT(result.counters.total_preemptions(), 0)
          << "budget not tight enough to exercise " << static_cast<int>(policy);
      if (expect_no_recompute) {
        // Swap-to-host restores pages instead of recomputing: total prefill
        // work equals the prompt tokens exactly, and first tokens are
        // emitted exactly once.
        EXPECT_EQ(result.counters.preemptions_recompute, 0);
        EXPECT_EQ(result.total_prefill_tokens, total_prompt);
        for (const Request& request : requests) {
          EXPECT_EQ(result.first_token_count[request.id], 1);
        }
      } else {
        // Recompute policies re-prefill their victims' prompts.
        EXPECT_GE(result.total_prefill_tokens, total_prompt);
      }
    }
  }
}

TEST(PolicyInvariantTest, PreemptNewestNeverLeaksAndAllFinish) {
  check_policy_invariants(EvictionPolicy::kPreemptNewest,
                          /*expect_no_recompute=*/false);
}

TEST(PolicyInvariantTest, SwapToHostNeverLeaksAndNeverRecomputes) {
  check_policy_invariants(EvictionPolicy::kSwapToHost,
                          /*expect_no_recompute=*/true);
}

TEST(PolicyInvariantTest, PriorityVictimNeverLeaksAndAllFinish) {
  check_policy_invariants(EvictionPolicy::kPriorityVictim,
                          /*expect_no_recompute=*/false);
}

TEST(PolicyInvariantTest, ChunkedPrefillConservesPromptTokens) {
  // With a budget no growth outruns (no preemption) every prompt token is
  // prefilled exactly once, chunked or not, and the totals match.
  const auto requests = invariant_stream(7, 40);
  std::int64_t total_prompt = 0;
  for (const Request& request : requests) total_prompt += request.prompt_len;
  DriveResult unchunked = drive_to_completion(
      requests, EvictionPolicy::kPreemptNewest, /*chunk=*/0, /*kv_budget=*/1e9);
  DriveResult chunked = drive_to_completion(
      requests, EvictionPolicy::kPreemptNewest, /*chunk=*/128,
      /*kv_budget=*/1e9);
  EXPECT_EQ(unchunked.counters.total_preemptions(), 0);
  EXPECT_EQ(chunked.counters.total_preemptions(), 0);
  EXPECT_EQ(unchunked.total_prefill_tokens, total_prompt);
  EXPECT_EQ(chunked.total_prefill_tokens, total_prompt);
  EXPECT_GT(chunked.counters.chunked_prefill_steps, 0);
  EXPECT_EQ(unchunked.counters.chunked_prefill_steps, 0);
  EXPECT_GT(chunked.steps, unchunked.steps);  // prompts split across steps
}

TEST(PolicyInvariantTest, RecomputePreemptionRePrefillsPrompt) {
  // Two long-output requests against a 40-token budget (as in
  // serving_test's KvPressure trace): the preempted request's prompt is
  // prefilled twice under recompute.
  std::vector<Request> requests = {make_request(0, 10, 12),
                                   make_request(1, 10, 12)};
  DriveResult result = drive_to_completion(
      requests, EvictionPolicy::kPreemptNewest, /*chunk=*/0, 40.0);
  EXPECT_GT(result.counters.preemptions_recompute, 0);
  EXPECT_GT(result.total_prefill_tokens, 20);
  EXPECT_EQ(result.finish_count[0], 1);
  EXPECT_EQ(result.finish_count[1], 1);
}

TEST(PolicyInvariantTest, SwapPreemptionKeepsDecodeProgress) {
  // Same pressure as above under kSwapToHost: no prompt is ever
  // recomputed and each first token is emitted exactly once.
  std::vector<Request> requests = {make_request(0, 10, 12),
                                   make_request(1, 10, 12)};
  DriveResult result = drive_to_completion(
      requests, EvictionPolicy::kSwapToHost, /*chunk=*/0, 40.0);
  EXPECT_GT(result.counters.preemptions_swap, 0);
  EXPECT_EQ(result.counters.preemptions_recompute, 0);
  EXPECT_EQ(result.total_prefill_tokens, 20);
  EXPECT_EQ(result.first_token_count[0], 1);
  EXPECT_EQ(result.first_token_count[1], 1);
  // Every swap-out eventually swapped back in, byte for byte.
  EXPECT_EQ(result.counters.swap_ins, result.counters.preemptions_swap);
  EXPECT_DOUBLE_EQ(result.counters.swap_out_bytes,
                   result.counters.swap_in_bytes);
  EXPECT_GT(result.counters.swap_out_bytes, 0.0);
}

TEST(PolicyInvariantTest, PriorityVictimSparesHighPriority) {
  // Four equal-size sequences, one at priority 9: under pressure only the
  // priority-0 sequences are ever preempted.
  std::vector<Request> requests = {
      make_request(0, 50, 80, /*priority=*/0),
      make_request(1, 50, 80, /*priority=*/0),
      make_request(2, 50, 80, /*priority=*/0),
      make_request(3, 50, 80, /*priority=*/9),
  };
  KvCacheManager kv(400.0, 1.0, EvictionPolicy::kPriorityVictim);
  SchedulerConfig config;
  ContinuousBatchScheduler scheduler(config, &kv);
  for (const Request& request : requests) scheduler.enqueue(request);
  std::vector<std::int64_t> preempted;
  std::map<std::int64_t, std::int64_t> finish_count;
  for (StepRecord step; scheduler.next_step(&step);) {
    for (std::int64_t id : step.preempted_ids) preempted.push_back(id);
    for (std::int64_t id : step.finished_ids) ++finish_count[id];
  }
  EXPECT_FALSE(preempted.empty());
  EXPECT_TRUE(std::find(preempted.begin(), preempted.end(), 3) ==
              preempted.end())
      << "high-priority request was victimized";
  for (std::int64_t id = 0; id < 4; ++id) EXPECT_EQ(finish_count[id], 1);
}

// --- Admission-policy wall ---------------------------------------------------
//
// The admission API (serving/admission_policy.h) owns waiting-queue
// ordering.  This wall pins: lookup by name, FIFO-equals-default
// equivalence, WFQ order by virtual work and share proportionality, and
// KV-accounting cleanliness under every admission x eviction combination.

TEST(AdmissionPolicyTest, RegistryNamesAreStableAndUnknownThrows) {
  // The lookup knows exactly the three built-ins: each name constructs a
  // policy, and any other name throws with a message listing every
  // built-in.
  const std::vector<std::string> builtins = {"edf", "fifo", "wfq"};
  AdmissionConfig config;
  for (const std::string& name : builtins) {
    config.policy = name;
    EXPECT_NE(make_admission_policy(config), nullptr) << name;
  }
  for (const std::string unknown : {"no_such_policy", "priority"}) {
    config.policy = unknown;
    try {
      make_admission_policy(config);
      ADD_FAILURE() << "unknown admission policy '" << unknown
                    << "' must throw";
    } catch (const ConfigError& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("'" + unknown + "'"), std::string::npos);
      EXPECT_NE(message.find("edf fifo wfq"), std::string::npos) << message;
    }
  }
  config.policy = "";
  EXPECT_THROW(make_admission_policy(config), ConfigError);
}

TEST(AdmissionPolicyTest, ExplicitFifoIsBitIdenticalToDefault) {
  // The golden pins below already freeze default behaviour; this pins the
  // other side of the equivalence — selecting "fifo" by name reproduces
  // the default construction EXACTLY, so the lookup itself adds no drift.
  const auto requests = generate_requests(multi_tenant_pressure_stream(
      /*seed=*/42, /*num_requests=*/120, /*arrival_rate=*/50.0,
      /*num_tenants=*/1));
  ServingScenario defaulted = llama7b_pressured_scenario(
      1, ir::DType::kInt4, EvictionPolicy::kPreemptNewest, /*chunk_tokens=*/0,
      /*kv_budget_tokens=*/2000);
  ServingScenario explicit_fifo = defaulted;
  explicit_fifo.scheduler.admission.policy = "fifo";
  expect_identical_metrics(run_serving(defaulted, requests),
                           run_serving(explicit_fifo, requests));
}

TEST(AdmissionPolicyTest, WfqSharesTrackWeightsUnderOverload) {
  // THE acceptance scenario: 2 backlogged tenants at 3:1 weights over a
  // fixed overloaded window.  Admitted tokens follow virtual work, so the
  // per-tenant goodput ratio must land near 3 and the weight-normalized
  // Jain index near 1.  FIFO on the SAME traffic splits goodput by the
  // (uniform) traffic mix instead — ratio near 1, normalized Jain well
  // below WFQ's.
  const auto requests = generate_requests(
      multi_tenant_pressure_stream(/*seed=*/42, /*num_requests=*/400,
                                   /*arrival_rate=*/50.0, /*num_tenants=*/2));
  const ServingMetrics wfq = run_serving(
      multi_tenant_fairness_scenario(ir::DType::kInt4, "wfq"), requests);
  const ServingMetrics fifo = run_serving(
      multi_tenant_fairness_scenario(ir::DType::kInt4, "fifo"), requests);

  ASSERT_EQ(wfq.tenants.size(), 2u);
  ASSERT_EQ(fifo.tenants.size(), 2u);
  EXPECT_EQ(wfq.tenants[0].tenant_id, 0);
  EXPECT_EQ(wfq.tenants[1].tenant_id, 1);
  EXPECT_DOUBLE_EQ(wfq.tenants[0].weight, 3.0);
  EXPECT_DOUBLE_EQ(wfq.tenants[1].weight, 1.0);
  ASSERT_GT(wfq.tenants[1].goodput_tokens_per_second, 0.0);
  ASSERT_GT(fifo.tenants[1].goodput_tokens_per_second, 0.0);

  const double wfq_ratio = wfq.tenants[0].goodput_tokens_per_second /
                           wfq.tenants[1].goodput_tokens_per_second;
  const double fifo_ratio = fifo.tenants[0].goodput_tokens_per_second /
                            fifo.tenants[1].goodput_tokens_per_second;
  EXPECT_GE(wfq_ratio, 2.5);
  EXPECT_LE(wfq_ratio, 3.5);
  EXPECT_LT(fifo_ratio, 1.5) << "FIFO should track the ~uniform traffic mix";
  EXPECT_GT(wfq.jain_fairness, 0.95);
  EXPECT_GT(wfq.jain_fairness, fifo.jain_fairness);

  // The run was genuinely overloaded the whole window: neither policy
  // completed everything before the horizon.
  EXPECT_LT(wfq.completed, static_cast<std::int64_t>(requests.size()));
  EXPECT_LT(fifo.completed, static_cast<std::int64_t>(requests.size()));
}

TEST(AdmissionPolicyTest, WfqAdmitsTheTenantWithLeastVirtualWork) {
  // Serialized admissions make the order observable.  Every request
  // charges 30 tokens: 15 units of virtual work to tenant 0 (weight 2),
  // 30 to tenant 1 (weight 1).  Each admission goes to the backlogged
  // tenant with the least virtual work, ties to the lower tenant id, so
  // tenant 0 admits two requests per tenant-1 request.
  KvCacheManager kv(1e9, 1.0, EvictionPolicy::kPreemptNewest);
  SchedulerConfig config;
  config.max_batch = 1;
  config.admission.policy = "wfq";
  config.admission.tenant_weights = {2.0, 1.0};
  ContinuousBatchScheduler scheduler(config, &kv);

  const auto tenant_request = [](std::int64_t id, std::int64_t tenant) {
    Request request = make_request(id, 20, 10);
    request.tenant_id = tenant;  // 30 admission tokens each
    return request;
  };
  for (std::int64_t id = 0; id < 6; ++id) {
    scheduler.enqueue(tenant_request(id, 0));
  }
  for (std::int64_t id = 6; id < 9; ++id) {
    scheduler.enqueue(tenant_request(id, 1));
  }

  std::vector<std::int64_t> first_tokens;
  StepRecord record;
  while (scheduler.next_step(&record)) {
    for (std::int64_t id : record.first_token_ids) first_tokens.push_back(id);
  }
  // Virtual work after each admission (tenant 0 / tenant 1):
  // 15/0, 15/30, 30/30, 45/30, 45/60, 60/60, 75/60, 75/90, 90/90.
  EXPECT_EQ(first_tokens,
            (std::vector<std::int64_t>{0, 6, 1, 2, 7, 3, 4, 8, 5}));
}

TEST(AdmissionPolicyTest, AccountingCleanUnderEveryAdmissionEvictionPair) {
  // The PolicyInvariantTest wall audits eviction policies under FIFO
  // admission; this extends the matrix to all 3 admission x 3 eviction
  // combinations: KV pages never leak or double-free, every request
  // finishes exactly once, and the incremental aggregates stay consistent.
  for (const char* admission : {"fifo", "wfq", "edf"}) {
    AdmissionConfig admission_config;
    admission_config.policy = admission;
    admission_config.tenant_weights = {2.0, 1.0};
    for (EvictionPolicy eviction :
         {EvictionPolicy::kPreemptNewest, EvictionPolicy::kSwapToHost,
          EvictionPolicy::kPriorityVictim}) {
      const auto requests = invariant_stream(23, 60);
      DriveResult result = drive_to_completion(
          requests, eviction, /*chunk_tokens=*/128, /*kv_budget=*/600.0,
          /*host_capacity=*/1e12, admission_config);
      for (const Request& request : requests) {
        EXPECT_EQ(result.finish_count[request.id], 1)
            << "admission " << admission << " eviction "
            << eviction_policy_name(eviction) << " request " << request.id;
      }
      EXPECT_GT(result.counters.total_preemptions(), 0)
          << "admission " << admission << " eviction "
          << eviction_policy_name(eviction);
    }
  }
}

TEST(JainFairnessTest, IndexMatchesClosedForm) {
  EXPECT_DOUBLE_EQ(jain_fairness_index({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index({0.0, 0.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index({5.0, 5.0, 5.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index({1.0, 0.0, 0.0, 0.0}), 0.25);
  // (1+2+3)^2 / (3 * (1+4+9)) = 36/42
  EXPECT_DOUBLE_EQ(jain_fairness_index({1.0, 2.0, 3.0}), 36.0 / 42.0);
  EXPECT_THROW(jain_fairness_index({-1.0}), ConfigError);
}

TEST(RequestGenTenantTest, AssignmentDecoupledFromArrivalsAndSkewed) {
  RequestStreamConfig base = zipf_chat_stream(11, 900, 20.0);
  RequestStreamConfig tenanted = base;
  tenanted.num_tenants = 3;
  tenanted.tenant_weights = {6.0, 3.0, 1.0};
  const auto plain = generate_requests(base);
  const auto assigned = generate_requests(tenanted);
  ASSERT_EQ(plain.size(), assigned.size());
  std::map<std::int64_t, std::int64_t> counts;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    // Tenants come from their own decoupled rng stream: arrivals, lengths,
    // and priorities are bit-identical whatever the tenant model.
    EXPECT_EQ(plain[i].arrival_time, assigned[i].arrival_time);
    EXPECT_EQ(plain[i].prompt_len, assigned[i].prompt_len);
    EXPECT_EQ(plain[i].output_len, assigned[i].output_len);
    EXPECT_EQ(plain[i].priority, assigned[i].priority);
    EXPECT_EQ(plain[i].tenant_id, 0);
    EXPECT_GE(assigned[i].tenant_id, 0);
    EXPECT_LT(assigned[i].tenant_id, 3);
    ++counts[assigned[i].tenant_id];
  }
  // 6:3:1 weights over 900 draws: order must hold with a wide margin.
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], 0);

  RequestStreamConfig bad = tenanted;
  bad.tenant_weights = {1.0, 2.0};  // size != num_tenants
  EXPECT_THROW(generate_requests(bad), ConfigError);
  bad.tenant_weights = {1.0, -1.0, 1.0};
  EXPECT_THROW(generate_requests(bad), ConfigError);
  bad.tenant_weights.clear();
  bad.num_tenants = 0;
  EXPECT_THROW(generate_requests(bad), ConfigError);
}

// --- Per-sequence attention costing ------------------------------------------

class CostModelTest : public ::testing::Test {
 protected:
  CostModelTest()
      : chip_(arch::tpu_v4i_baseline()), simulator_(chip_) {
    model_ = models::llama2_7b();
    model_.dtype = ir::DType::kInt4;
  }

  arch::TpuChip chip_;
  sim::Simulator simulator_;
  models::TransformerConfig model_;
};

TEST_F(CostModelTest, PerSequenceDecodeCostDiffersFromMeanCost) {
  // Heterogeneous batch: one sequence at KV 128, one at KV 4096.  The old
  // scheduler costed this step as decode(batch=2, mean 2112); per-sequence
  // costing charges decode(1, 128) + decode(1, 4096).  The two models must
  // disagree measurably — that disagreement is the fidelity this PR adds.
  StepCostCache costs(simulator_, model_, 128);
  StepRecord step;
  step.kind = StepRecord::Kind::kDecode;
  step.batch = 2;
  step.decode_groups = {{128, 1}, {4096, 1}};
  const StepCost per_sequence = cost_step(costs, step);
  const StepCost exact_sum = [&] {
    StepCost sum;
    const StepCost lo = costs.decode_layer(1, 128);
    const StepCost hi = costs.decode_layer(1, 4096);
    sum.latency = lo.latency + hi.latency;
    sum.total_energy = lo.total_energy + hi.total_energy;
    return sum;
  }();
  EXPECT_DOUBLE_EQ(per_sequence.latency, exact_sum.latency);
  EXPECT_DOUBLE_EQ(per_sequence.total_energy, exact_sum.total_energy);
  // The repeat is served from the last-grouping memo, unchanged.
  EXPECT_DOUBLE_EQ(cost_step(costs, step).latency, per_sequence.latency);

  const StepCost mean_model = costs.decode_layer(2, (128 + 4096) / 2);
  const double rel_diff =
      std::abs(per_sequence.latency - mean_model.latency) / mean_model.latency;
  EXPECT_GT(rel_diff, 0.02) << "per-sequence costing should visibly diverge "
                               "from mean-KV costing on heterogeneous batches";
}

/// The first decode step a scheduler plans for `prompts` (each request
/// emits at least 3 tokens, so each one decodes), enqueued in order.
StepRecord first_decode_step(const std::vector<std::int64_t>& prompts) {
  KvCacheManager kv(1e6, 1.0);
  ContinuousBatchScheduler scheduler(SchedulerConfig{}, &kv);
  for (std::size_t i = 0; i < prompts.size(); ++i) {
    scheduler.enqueue(
        make_request(static_cast<std::int64_t>(i), prompts[i], 3));
  }
  StepRecord step;
  EXPECT_TRUE(scheduler.next_step(&step));  // prefills every prompt
  EXPECT_EQ(step.kind, StepRecord::Kind::kPrefill);
  EXPECT_TRUE(scheduler.next_step(&step));
  EXPECT_EQ(step.kind, StepRecord::Kind::kDecode);
  return step;
}

TEST_F(CostModelTest, EqualLengthBatchGroupsIntoOneShape) {
  // Decode KV lengths 200, 220, 250 and 256 all bucket to 256: the
  // scheduler's record carries one group, costed as one shape.
  const StepRecord step = first_decode_step({199, 219, 249, 255});
  EXPECT_EQ(step.decode_groups,
            (std::vector<std::pair<std::int64_t, std::int64_t>>{{256, 4}}));
  StepCostCache costs(simulator_, model_, 128);
  const StepCost grouped = cost_step(costs, step);
  const StepCost direct = costs.decode_layer(4, 256);
  EXPECT_DOUBLE_EQ(grouped.latency, direct.latency);
  EXPECT_DOUBLE_EQ(grouped.total_energy, direct.total_energy);
}

TEST_F(CostModelTest, DecodeCostInvariantUnderParticipantOrder) {
  // Admission order changes the batch's order, not its grouping (ascending
  // by bucket), so the step costs the same to the bit.
  const StepRecord a = first_decode_step({127, 1023, 4095});
  const StepRecord b = first_decode_step({4095, 127, 1023});
  EXPECT_EQ(a.decode_groups, b.decode_groups);
  EXPECT_EQ(a.decode_groups,
            (std::vector<std::pair<std::int64_t, std::int64_t>>{
                {128, 1}, {1024, 1}, {4096, 1}}));
  StepCostCache costs_a(simulator_, model_, 128);
  StepCostCache costs_b(simulator_, model_, 128);
  EXPECT_EQ(cost_step(costs_a, a).latency, cost_step(costs_b, b).latency);
}

TEST_F(CostModelTest, DecodeRecordsMustCarryTheirGrouping) {
  StepCostCache costs(simulator_, model_, 128);
  StepRecord step;
  step.kind = StepRecord::Kind::kDecode;
  step.batch = 2;
  EXPECT_THROW(cost_step(costs, step), InternalError);
  // Groups whose counts miss the batch are rejected too.
  step.decode_groups = {{128, 1}};
  EXPECT_THROW(cost_step(costs, step), InternalError);
}

TEST_F(CostModelTest, ChunkedPrefillCostTelescopesToUnchunked) {
  // Chunk costs are increments between full-prefill shapes, so the chunks
  // of a 1000-token prompt sum to exactly the unchunked prefill cost.
  StepCostCache costs(simulator_, model_, 128);
  const std::vector<std::pair<std::int64_t, std::int64_t>> chunks = {
      {0, 256}, {256, 256}, {512, 256}, {768, 232}};  // (prev, chunk)
  StepCost chunked_total;
  for (const auto& [prev, chunk] : chunks) {
    StepRecord step;
    step.kind = StepRecord::Kind::kPrefill;
    step.batch = 1;
    step.prev_lens = {prev};
    step.chunk_lens = {chunk};
    const StepCost cost = cost_step(costs, step);
    EXPECT_GE(cost.latency, 0.0);  // monotonicity of prefill in length
    chunked_total.latency += cost.latency;
    chunked_total.total_energy += cost.total_energy;
  }
  StepRecord whole;
  whole.kind = StepRecord::Kind::kPrefill;
  whole.batch = 1;
  whole.prev_lens = {0};
  whole.chunk_lens = {1000};
  const StepCost unchunked = cost_step(costs, whole);
  EXPECT_NEAR(chunked_total.latency, unchunked.latency,
              1e-9 * unchunked.latency);
  EXPECT_NEAR(chunked_total.total_energy, unchunked.total_energy,
              1e-9 * unchunked.total_energy);
}

TEST_F(CostModelTest, PrefillCostMonotoneInLength) {
  // The telescoped chunk costing relies on prefill cost growing with
  // sequence length; pin that property across the chunking range.
  StepCostCache costs(simulator_, model_, 128);
  Seconds prev_latency = 0;
  for (std::int64_t len = 128; len <= 4096; len += 256) {
    const StepCost cost = costs.prefill_layer(1, len);
    EXPECT_GT(cost.latency, prev_latency) << "at length " << len;
    prev_latency = cost.latency;
  }
}

// --- End-to-end policy behaviour ---------------------------------------------

RequestStreamConfig pressure_stream(std::uint64_t seed, std::int64_t n) {
  RequestStreamConfig stream;
  stream.seed = seed;
  stream.num_requests = n;
  stream.arrival_rate = 50.0;
  stream.prompt.kind = LengthDistribution::kUniform;
  stream.prompt.min_len = stream.prompt.max_len = 256;
  stream.output.kind = LengthDistribution::kUniform;
  stream.output.min_len = 64;
  stream.output.max_len = 256;
  stream.priority_classes = 3;
  return stream;
}

ServingScenario pressured(EvictionPolicy policy, std::int64_t chunk) {
  // 2000-token budget: ~7 resident 257-token reservations, guaranteed
  // growth pressure with 64..256-token outputs.
  return llama7b_pressured_scenario(1, ir::DType::kInt4, policy, chunk,
                                    /*kv_budget_tokens=*/2000);
}

TEST(PolicyEndToEndTest, AllPoliciesCompleteUnderPressure) {
  for (std::uint64_t seed : {3ull, 17ull, 101ull}) {
    const auto requests = generate_requests(pressure_stream(seed, 60));
    for (EvictionPolicy policy :
         {EvictionPolicy::kPreemptNewest, EvictionPolicy::kSwapToHost,
          EvictionPolicy::kPriorityVictim}) {
      for (std::int64_t chunk : {std::int64_t{0}, std::int64_t{256}}) {
        const ServingMetrics metrics =
            run_serving(pressured(policy, chunk), requests);
        EXPECT_EQ(metrics.completed, 60)
            << eviction_policy_name(policy) << " chunk " << chunk << " seed "
            << seed;
        EXPECT_GT(metrics.preemptions, 0)
            << eviction_policy_name(policy) << " chunk " << chunk << " seed "
            << seed;
        EXPECT_GE(metrics.e2e.p99, metrics.ttft.p99);
      }
    }
  }
}

TEST(PolicyEndToEndTest, SwapRunMovesBytesNotRecompute) {
  const auto requests = generate_requests(pressure_stream(5, 60));
  const ServingMetrics metrics =
      run_serving(pressured(EvictionPolicy::kSwapToHost, 0), requests);
  EXPECT_GT(metrics.counters.preemptions_swap, 0);
  EXPECT_EQ(metrics.counters.preemptions_recompute, 0);
  EXPECT_GT(metrics.counters.swap_out_bytes, 0.0);
  EXPECT_DOUBLE_EQ(metrics.counters.swap_out_bytes,
                   metrics.counters.swap_in_bytes);
  EXPECT_EQ(metrics.counters.chunked_prefill_steps, 0);
}

TEST(PolicyEndToEndTest, HostPoolExhaustionFallsBackToRecompute) {
  const auto requests = generate_requests(pressure_stream(5, 60));
  ServingScenario scenario = pressured(EvictionPolicy::kSwapToHost, 0);
  scenario.host_pool_capacity = 0;  // no host pool at all
  const ServingMetrics metrics = run_serving(scenario, requests);
  EXPECT_EQ(metrics.completed, 60);
  EXPECT_EQ(metrics.counters.preemptions_swap, 0);
  EXPECT_GT(metrics.counters.preemptions_recompute, 0);
}

TEST(PolicyEndToEndTest, SwapChargesHostLinkTime) {
  const auto requests = generate_requests(pressure_stream(5, 60));
  ServingScenario fast = pressured(EvictionPolicy::kSwapToHost, 0);
  ServingScenario slow = fast;
  fast.host_link_bandwidth = 1e15;  // effectively free transfers
  slow.host_link_bandwidth = 1 * GBps;
  const ServingMetrics fast_metrics = run_serving(fast, requests);
  const ServingMetrics slow_metrics = run_serving(slow, requests);
  ASSERT_GT(slow_metrics.counters.swap_out_bytes, 0.0);
  EXPECT_GT(slow_metrics.makespan, fast_metrics.makespan);
}

TEST(PolicyEndToEndTest, ChunkingCountsStepsAndConservesTokens) {
  const auto requests = generate_requests(pressure_stream(9, 60));
  // Chunk budget 128 < the 256-token prompts, so every prompt is split.
  const ServingMetrics unchunked =
      run_serving(pressured(EvictionPolicy::kSwapToHost, 0), requests);
  const ServingMetrics chunked =
      run_serving(pressured(EvictionPolicy::kSwapToHost, 128), requests);
  EXPECT_EQ(unchunked.counters.chunked_prefill_steps, 0);
  EXPECT_GT(chunked.counters.chunked_prefill_steps, 0);
  // Chunking changes step schedule, never the tokens served.
  EXPECT_EQ(chunked.completed, unchunked.completed);
  EXPECT_EQ(chunked.generated_tokens, unchunked.generated_tokens);
}

TEST(PolicyEndToEndTest, ChunkingBoundsTpotUnderLongPrompts) {
  // Long 4096-token prompts streaming into a decode-heavy batch: whole-
  // prompt prefill steps stall every decoder for the full prompt latency,
  // chunked prefill amortizes it, so worst-case TPOT drops.
  RequestStreamConfig stream;
  stream.seed = 21;
  stream.num_requests = 40;
  stream.arrival_rate = 2.0;
  stream.prompt.kind = LengthDistribution::kUniform;
  stream.prompt.min_len = stream.prompt.max_len = 4096;
  stream.output.kind = LengthDistribution::kUniform;
  stream.output.min_len = stream.output.max_len = 128;
  const auto requests = generate_requests(stream);
  ServingScenario whole = llama7b_baseline_scenario(1, ir::DType::kInt4);
  ServingScenario chunked = whole;
  chunked.scheduler.prefill_chunk_tokens = 512;
  const ServingMetrics whole_metrics = run_serving(whole, requests);
  const ServingMetrics chunked_metrics = run_serving(chunked, requests);
  EXPECT_EQ(whole_metrics.completed, 40);
  EXPECT_EQ(chunked_metrics.completed, 40);
  EXPECT_LT(chunked_metrics.tpot.max, whole_metrics.tpot.max);
}

// --- Golden-metrics regression (one fixed seed per policy x chunking) --------
//
// These pin the canonical pressured deployment's metrics so ANY behavioural
// drift in the scheduler, admission path, cost model, or KV manager fails
// ctest.  The pins run under the DEFAULT "fifo" admission policy — the
// exact pre-admission-API waiting-queue behaviour — and correspond to the
// per-policy rows of BENCH_serving.json (serving_traffic --bench-json).  They
// ALSO run under the paged-KV defaults (kv_block_tokens = 1, prefix
// caching off), which the block allocator reproduces bit for bit — the
// PagedContiguousLockstepTest wall in serving_paged_kv_test.cpp pins that
// equivalence operation by operation.  Two dimensions are deliberately
// NOT golden-pinned:
//   * the admission-policy dimension ("wfq", "edf") — asserted
//     functionally by the AdmissionPolicyTest wall above (order by virtual
//     work, share proportionality, Jain index) and serving_slo_test.cpp,
//     aggregates in the JSON's "fairness" and "slo_frontier" blocks;
//   * the paged-KV dimension (block sizes > 1, prefix caching on) —
//     asserted functionally by serving_paged_kv_test.cpp (hit rate,
//     blocks saved, CoW, fragmentation), aggregates in the schema-v5
//     "prefix_cache" block.
//
// UPDATE PROCEDURE (only after an INTENTIONAL behaviour change):
//   1. Re-run ./serving_policy_test with --gtest_also_run_disabled_tests
//      and --gtest_filter='*PrintGoldenValues*'.
//   2. Paste the printed table over kGoldens below.
//   3. Explain the drift (which change moved which metric) in your PR.
//   4. If the drift also moves `serving_traffic --bench-json` output,
//      refresh the committed BENCH_serving.json at the repo root with it
//      (the CI perf-smoke job diffs a fresh file against it byte for
//      byte; every value in it is simulated).  The file is schema v12:
//      "baseline" / "policies" / "fairness" / "prefix_cache" /
//      "slo_frontier" / "observability" / "resilience" / "cluster"
//      blocks.
//      The slo_frontier rows must keep EDF's slo_attainment strictly above
//      FIFO's at the highest swept arrival rate (serving_slo_test pins the
//      ordering), the resilience rows (fault storm at kFaultStormSeed,
//      recovery off/on) must keep recovery-on strictly above recovery-off
//      on BOTH availability and slo_goodput_tokens_per_s at every swept
//      fault rate (serving_fault_test pins the frontier at rate 1.0), and
//      the cluster rows must keep prefix_affinity's cluster-wide
//      prefix_hit_rate strictly above round_robin's in "router_rows" AND
//      the disaggregated ttft_p99_s strictly below the colocated one at
//      the top swept rate in "disaggregation" (serving_cluster_test pins
//      both orderings on the canonical grids).

struct Golden {
  EvictionPolicy policy;
  std::int64_t chunk;
  double ttft_p50;
  double tpot_p99;
  double e2e_p99;
  double goodput;
  std::int64_t preemptions;
};

ServingScenario golden_scenario(EvictionPolicy policy, std::int64_t chunk) {
  return llama7b_pressured_scenario(1, ir::DType::kInt4, policy, chunk,
                                    /*kv_budget_tokens=*/2000);
}

std::vector<Request> golden_requests() {
  return generate_requests(pressure_stream(/*seed=*/42, /*n=*/120));
}

const Golden kGoldens[] = {
    {EvictionPolicy::kPreemptNewest, 0, 30.693299671957757, 0.034985581768453788, 62.77180183941045, 283.56241520408537, 171},
    {EvictionPolicy::kPreemptNewest, 512, 30.672954102618533, 0.03464261054684576, 62.751456270071237, 283.64933047482293, 171},
    {EvictionPolicy::kSwapToHost, 0, 25.446754345753291, 0.026795361947768607, 53.642802951888896, 330.80099372251351, 71},
    {EvictionPolicy::kSwapToHost, 512, 24.725860369934757, 0.027492356534360621, 52.83777436099227, 335.65516636032862, 68},
    {EvictionPolicy::kPriorityVictim, 0, 50.908952469979937, 0.26643852063218754, 113.08000601840725, 162.76225663281016, 716},
    {EvictionPolicy::kPriorityVictim, 512, 50.898601601548421, 0.31410005651004802, 122.36652738448615, 150.31525537858928, 865},
};

const Golden& golden_for(EvictionPolicy policy, std::int64_t chunk) {
  for (const Golden& golden : kGoldens) {
    if (golden.policy == policy && golden.chunk == chunk) return golden;
  }
  ADD_FAILURE() << "no golden pinned";
  return kGoldens[0];
}

void check_golden(EvictionPolicy policy, std::int64_t chunk) {
  const Golden& golden = golden_for(policy, chunk);
  const ServingMetrics metrics =
      run_serving(golden_scenario(policy, chunk), golden_requests());
  EXPECT_EQ(metrics.completed, 120);
  // Tolerance 1e-6 relative: loose enough for libm ulp differences across
  // platforms, tight enough that any scheduling change fails.
  const auto near = [](double actual, double expected) {
    EXPECT_NEAR(actual, expected, 1e-6 * std::abs(expected) + 1e-12);
  };
  near(metrics.ttft.p50, golden.ttft_p50);
  near(metrics.tpot.p99, golden.tpot_p99);
  near(metrics.e2e.p99, golden.e2e_p99);
  near(metrics.goodput_tokens_per_second, golden.goodput);
  EXPECT_EQ(metrics.preemptions, golden.preemptions);
}

TEST(GoldenMetricsTest, PreemptNewestUnchunked) {
  check_golden(EvictionPolicy::kPreemptNewest, 0);
}
TEST(GoldenMetricsTest, PreemptNewestChunked) {
  check_golden(EvictionPolicy::kPreemptNewest, 512);
}
TEST(GoldenMetricsTest, SwapToHostUnchunked) {
  check_golden(EvictionPolicy::kSwapToHost, 0);
}
TEST(GoldenMetricsTest, SwapToHostChunked) {
  check_golden(EvictionPolicy::kSwapToHost, 512);
}
TEST(GoldenMetricsTest, PriorityVictimUnchunked) {
  check_golden(EvictionPolicy::kPriorityVictim, 0);
}
TEST(GoldenMetricsTest, PriorityVictimChunked) {
  check_golden(EvictionPolicy::kPriorityVictim, 512);
}

// Regenerates the kGoldens table (see UPDATE PROCEDURE above).
TEST(GoldenMetricsTest, DISABLED_PrintGoldenValues) {
  for (const Golden& golden : kGoldens) {
    const ServingMetrics metrics = run_serving(
        golden_scenario(golden.policy, golden.chunk), golden_requests());
    std::printf("    {EvictionPolicy::k%s, %lld, %.17g, %.17g, %.17g, %.17g, "
                "%lld},\n",
                golden.policy == EvictionPolicy::kPreemptNewest
                    ? "PreemptNewest"
                    : golden.policy == EvictionPolicy::kSwapToHost
                          ? "SwapToHost"
                          : "PriorityVictim",
                static_cast<long long>(golden.chunk), metrics.ttft.p50,
                metrics.tpot.p99, metrics.e2e.p99,
                metrics.goodput_tokens_per_second,
                static_cast<long long>(metrics.preemptions));
  }
}

}  // namespace
}  // namespace cimtpu::serving
