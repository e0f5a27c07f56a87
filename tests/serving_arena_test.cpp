// Step allocation discipline: the serving hot loop (next_step +
// cost_step, and the engine's quiet-decode fast path) must not touch the
// heap in steady-state decode, and the engine's per-request state and
// end-of-run rollup stay within a byte budget per request.  This binary
// replaces GLOBAL operator new so every allocation anywhere in the
// process bumps a counter and the live and peak byte totals — the
// assertions below are therefore about the real allocator, not a proxy.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "arch/tpu_config.h"
#include "models/model_zoo.h"
#include "serving/kv_cache_manager.h"
#include "serving/request_gen.h"
#include "serving/scheduler.h"
#include "serving/serving_sim.h"
#include "serving/step_cost_cache.h"
#include "serving/traffic_profiles.h"
#include "sim/simulator.h"

// --- Counting global allocator ----------------------------------------------
// Minimal replacement set: the sized/array forms forward here.  Counting
// happens on every path so a hot-loop allocation cannot hide behind a
// specialized overload.  Each block carries a header holding its size, so
// a delete knows how many live bytes it returns.

namespace {
// Relaxed ordering: the tests that read the counts are single-threaded.
std::atomic<std::int64_t> heap_allocations{0};
std::atomic<std::int64_t> live_bytes{0};
std::atomic<std::int64_t> peak_bytes{0};

constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_alloc(std::size_t size) {
  heap_allocations.fetch_add(1, std::memory_order_relaxed);
  auto* block = static_cast<char*>(std::malloc(kHeader + size));
  if (block == nullptr) throw std::bad_alloc();
  *reinterpret_cast<std::size_t*>(block) = size;
  const std::int64_t live =
      live_bytes.fetch_add(static_cast<std::int64_t>(size),
                           std::memory_order_relaxed) +
      static_cast<std::int64_t>(size);
  if (live > peak_bytes.load(std::memory_order_relaxed)) {
    peak_bytes.store(live, std::memory_order_relaxed);
  }
  return block + kHeader;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  char* block = static_cast<char*>(p) - kHeader;
  live_bytes.fetch_sub(
      static_cast<std::int64_t>(*reinterpret_cast<std::size_t*>(block)),
      std::memory_order_relaxed);
  std::free(block);
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace cimtpu::serving {
namespace {

std::int64_t allocations() {
  return heap_allocations.load(std::memory_order_relaxed);
}

std::int64_t live() { return live_bytes.load(std::memory_order_relaxed); }

/// The highest live total since the last reset_peak().
std::int64_t peak() { return peak_bytes.load(std::memory_order_relaxed); }

void reset_peak() { peak_bytes.store(live(), std::memory_order_relaxed); }

TEST(AllocationHook, CountsRealAllocations) {
  const std::int64_t before = allocations();
  auto* v = new std::vector<int>(1024);
  delete v;
  EXPECT_GT(allocations(), before) << "the replacement operator new is not "
                                      "linked; zero-alloc assertions below "
                                      "would be vacuous";
}

TEST(AllocationHook, TracksLiveAndPeakBytes) {
  const std::int64_t before = live();
  reset_peak();
  {
    std::vector<char> big(1 << 20);
    EXPECT_EQ(live() - before, 1 << 20);
  }
  EXPECT_EQ(live(), before);
  EXPECT_EQ(peak() - before, 1 << 20);
}

TEST(StepRecord, ReserveAbsorbsTheFirstFullBatch) {
  StepRecord record;
  record.reserve(/*max_batch=*/32, /*max_prefill_batch=*/8);
  const std::int64_t before = allocations();
  for (int i = 0; i < 32; ++i) {
    record.finished_ids.push_back(i);
    record.decode_groups.emplace_back(128, 1);
  }
  for (int i = 0; i < 8; ++i) {
    record.chunk_lens.push_back(64);
    record.prev_lens.push_back(0);
    record.first_token_ids.push_back(i);
  }
  EXPECT_EQ(allocations(), before)
      << "a reserved record must absorb a full batch without reallocating";
  record.clear();
  EXPECT_EQ(allocations(), before) << "clear() must keep capacity";
}

class SteadyDecodeTest : public ::testing::Test {
 protected:
  SteadyDecodeTest() : chip_(arch::tpu_v4i_baseline()), simulator_(chip_) {
    model_ = models::llama2_7b();
    model_.dtype = ir::DType::kInt4;
  }

  static Request make_request(std::int64_t id) {
    Request request;
    request.id = id;
    request.arrival_time = 0.0;
    // Prompt 100 with seqlen_bucket 128: all decoders share bucket 128 and
    // stay there for > 20 decode steps — no bucket crossing (and thus no
    // new cost-cache shape) inside the measured window.
    request.prompt_len = 100;
    request.output_len = 1000;  // nobody finishes inside the window
    return request;
  }

  arch::TpuChip chip_;
  sim::Simulator simulator_;
  models::TransformerConfig model_;
};

TEST_F(SteadyDecodeTest, HotLoopIsAllocationFreeInSteadyState) {
  // Block 1 grows every decoder every step; block 16 with prefix caching
  // grows each decoder on one step in 16 (counted by clock phase) while
  // the requests share registered prefix blocks.  Both step the same
  // calendar, whose storage the scheduler reserves up front.
  for (const std::int64_t block : {1, 16}) {
    SCOPED_TRACE("kv_block_tokens=" + std::to_string(block));
    const bool prefix_cache = block > 1;
    KvCacheManager kv_cache(/*capacity=*/1e12,
                            KvCacheManager::token_bytes(model_),
                            EvictionPolicy::kPreemptNewest,
                            /*host_capacity=*/1024 * GiB, block,
                            prefix_cache);
    SchedulerConfig config;
    config.max_batch = 8;
    config.max_prefill_batch = 8;
    config.kv_block_tokens = block;
    config.enable_prefix_cache = prefix_cache;
    ContinuousBatchScheduler scheduler(config, &kv_cache);
    StepCostCache costs(simulator_, model_, config.seqlen_bucket);
    StepRecord record;
    record.reserve(config.max_batch, config.max_prefill_batch);

    for (std::int64_t id = 0; id < 8; ++id) {
      Request request = make_request(id);
      if (prefix_cache) {
        request.prefix_id = 0;
        request.prefix_len = 64;
      }
      scheduler.enqueue(request);
    }
    // Warm-up: admit + prefill everyone, then a few decode steps so every
    // cost shape and memoized grouping this regime uses is resident.
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(scheduler.next_step(&record));
      cost_step(costs, record);
    }
    ASSERT_EQ(record.kind, StepRecord::Kind::kDecode) << "warm-up too short";

    const std::int64_t blocks_before = kv_cache.blocks_allocated_total();
    const std::int64_t before = allocations();
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(scheduler.next_step(&record));
      ASSERT_EQ(record.kind, StepRecord::Kind::kDecode);
      ASSERT_EQ(record.batch, 8);
      cost_step(costs, record);
    }
    EXPECT_EQ(allocations(), before)
        << "steady-state decode (next_step + cost_step) must not allocate";
    // 16 steps start exactly one new block per decoder at block 16.
    EXPECT_EQ(kv_cache.blocks_allocated_total() - blocks_before,
              8 * 16 / block);
  }
}

TEST_F(SteadyDecodeTest, EngineDecodeIsAllocationFreeOnLightTraffic) {
  // A light stream: four residents decode alone, so the engine spends the
  // window in quiet decode runs (committed in bulk) and the single steps
  // between them.  A wide cost bucket keeps every decoder in one bucket
  // for the whole output, so no new cost shape is simulated in the window.
  ServingScenario scenario =
      llama7b_baseline_scenario(/*chips=*/1, ir::DType::kInt4);
  scenario.scheduler.seqlen_bucket = 2048;
  // The engine reads injected requests in place: they outlive it.
  std::vector<Request> requests;
  for (std::int64_t id = 0; id < 5; ++id) requests.push_back(make_request(id));
  requests.back().arrival_time = 1000.0;  // the next arrival bounds every
                                          // quiet run
  ServingEngine engine(scenario);
  for (const Request& request : requests) engine.inject(request);
  // Warm-up: arrival, admission, the prefill step (about 1.1 s here), and
  // the first decode steps, which simulate the one decode cost shape.
  ASSERT_TRUE(engine.pump(2.0));

  const std::int64_t before = allocations();
  // 0.05 s slices over [2 s, 3 s]: each pump takes one single step, then
  // fast-forwards through quiet runs to the slice boundary, which it
  // reaches (pump returns true only when the clock got to its target).
  for (int i = 1; i <= 20; ++i) {
    ASSERT_TRUE(engine.pump(2.0 + 0.05 * i));
  }
  EXPECT_EQ(allocations(), before)
      << "engine decode (single steps and quiet runs) must not allocate";
  EXPECT_EQ(engine.outstanding_tokens(), 5 * (100 + 1000))
      << "the window must be pure decode: nothing finishes";
}

TEST(KvAdmission, PrefixAdmitAndReleaseAllocateNothingOnceWarm) {
  // The router cells' shape: 16-token blocks and a 1000-token prefix (62
  // full blocks plus a copy-on-write tail, served by a resident donor).
  // Once the slot array, the chain and every shared list have their
  // capacity, admission, prefill notes and release recycle all of it.
  KvCacheManager kv(/*capacity=*/1e6, /*bytes_per_token=*/1.0,
                    EvictionPolicy::kPreemptNewest,
                    /*host_capacity=*/1024 * GiB, /*block_tokens=*/16,
                    /*enable_prefix_cache=*/true);
  constexpr std::int64_t kPrefix = 1000;
  constexpr std::int64_t kPrompt = 1100;
  const auto cycle = [&](std::int64_t id) {
    KvCacheManager::AdmitOutcome outcome;
    const auto slot = kv.try_admit(id, kPrompt + 1, /*priority=*/0,
                                   /*prefix_id=*/0, kPrefix, kPrompt,
                                   &outcome);
    ASSERT_TRUE(slot.has_value());
    ASSERT_EQ(outcome.shared_blocks, kPrefix / 16);
    ASSERT_EQ(outcome.cow_blocks, 1);
    kv.note_prefilled_slot(*slot, kPrompt / 2);
    kv.note_prefilled_slot(*slot, kPrompt);
    kv.release_slot(*slot);
  };
  // The donor registers the chain and stays resident.
  const auto donor = kv.try_admit(0, kPrompt + 1, 0, 0, kPrefix, kPrompt);
  ASSERT_TRUE(donor.has_value());
  kv.note_prefilled_slot(*donor, kPrompt);
  for (std::int64_t id = 1; id <= 4; ++id) cycle(id);  // warm-up

  const std::int64_t before = allocations();
  for (std::int64_t id = 5; id < 1005; ++id) cycle(id);
  EXPECT_EQ(allocations(), before)
      << "a warm admit / note_prefilled / release cycle must not allocate";
  EXPECT_EQ(kv.inspect().resident_entries, 1);
  EXPECT_TRUE(kv.audit());
}

// Whole-trace handover sizes the engine's per-request state once: no
// per-request allocation and no geometric regrowth, so 10x the requests
// cost the same number of heap allocations.
TEST(EngineInject, WholeTraceHandoverIsSizedOnce) {
  const ServingScenario scenario =
      llama7b_baseline_scenario(/*chips=*/1, ir::DType::kInt4);
  const auto handover_allocations = [&](std::int64_t count) {
    std::vector<Request> requests(static_cast<std::size_t>(count));
    for (std::int64_t i = 0; i < count; ++i) {
      Request& request = requests[static_cast<std::size_t>(i)];
      request.id = i;
      request.arrival_time = 0.01 * static_cast<double>(i);
      request.prompt_len = 64;
      request.output_len = 16;
    }
    ServingEngine engine(scenario);
    const std::int64_t before = allocations();
    engine.inject_all(requests);
    const std::int64_t made = allocations() - before;
    EXPECT_EQ(engine.outstanding_tokens(), count * (64 + 16));
    return made;
  };
  const std::int64_t small = handover_allocations(1000);
  const std::int64_t large = handover_allocations(10000);
  EXPECT_EQ(small, large)
      << "injecting a whole trace must allocate a count independent of its "
         "length";
  EXPECT_LE(large, 4) << "one allocation per per-request array";
}

// The engine's heap per request, on the chat_long workload's stream and
// chip: a whole-trace handover holds at most 32 B a request (pointer 8,
// timeline 16, flags 1, id slot 4), and the end-of-run rollup, which
// holds one latency sample and its sort scratch at a time, raises the
// peak by at most 20 B a request over the drained engine.
TEST(EngineHeap, InjectAndRollupStayWithinTheirBytesPerRequest) {
  constexpr std::int64_t kRequests = 50000;
  const std::vector<Request> requests =
      generate_requests(zipf_chat_stream(/*seed=*/42, kRequests, 1.0));
  ServingScenario scenario =
      llama7b_baseline_scenario(/*chips=*/1, ir::DType::kInt4);
  scenario.chip_config = arch::cim_tpu_default();
  ServingEngine engine(scenario);
  const std::int64_t constructed = live();
  engine.inject_all(requests);
  EXPECT_LE(live() - constructed, 32 * kRequests)
      << "inject_all's per-request state";
  engine.drain();
  const std::int64_t drained = live();
  reset_peak();
  const ServingMetrics metrics = engine.finish();
  EXPECT_EQ(metrics.completed, kRequests);
  EXPECT_LE(peak() - drained, 20 * kRequests)
      << "finish()'s peak over the drained engine";
}

}  // namespace
}  // namespace cimtpu::serving
