// Paged-KV hardening suite: block-granular allocation math, ref-counted
// prefix sharing (full blocks, cached retention, LRU reclaim, partial-tail
// copy-on-write), LRU order and id reuse in the flat block store, a seeded
// churn test against a brute-force prefix-cache reference, the O(1)
// admission bound and chunked prefill notes, input validation, victim
// order from the admit-order list against a brute-force scan, a seeded
// alloc/grow/share/CoW/free fuzz across 3 seeds x 3 eviction policies, and
// a paged-vs-contiguous lockstep equivalence test at block size 1 (the
// compatibility contract the golden pins rely on).
//
// The scheduler-level tests drive prefix-tagged requests end to end:
// prefix hits must skip prefill work (chunks start at a nonzero KV
// offset) and the canonical chatbot study must show hit rate > 0.5 with
// strictly higher goodput than caching off.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "serving/kv_cache_manager.h"
#include "serving/request_gen.h"
#include "serving/scheduler.h"
#include "serving/serving_sim.h"
#include "serving/traffic_profiles.h"

namespace cimtpu::serving {
namespace {

KvCacheManager paged(Bytes capacity, std::int64_t block_tokens,
                     bool prefix_cache,
                     EvictionPolicy policy = EvictionPolicy::kPreemptNewest,
                     Bytes host_capacity = 1024 * GiB) {
  return KvCacheManager(capacity, /*bytes_per_token=*/1.0, policy,
                        host_capacity, block_tokens, prefix_cache);
}

// --- Block-granular allocation math ------------------------------------------

TEST(PagedKvTest, GrowthAllocatesOnlyAtBlockBoundaries) {
  KvCacheManager kv = paged(/*capacity=*/40.0, /*block_tokens=*/4,
                            /*prefix_cache=*/false);
  EXPECT_EQ(kv.capacity_blocks(), 10);
  const std::int32_t slot = kv.try_admit(0, 9).value();  // ceil(9/4) = 3
  EXPECT_EQ(kv.occupied_blocks(), 3);
  EXPECT_EQ(kv.inspect(0).blocks, 3);  // whole blocks, not tokens
  // Decode growth, one advance per token: tokens 10..12 stay inside the
  // third block, so those advances owe no block.
  kv.begin_advance(slot);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(kv.advance_growth_blocks(), 0);
    kv.advance(1);
    EXPECT_TRUE(kv.audit());
  }
  EXPECT_EQ(kv.occupied_blocks(), 3);
  // Token 13 crosses into a fourth block.
  EXPECT_EQ(kv.advance_growth_blocks(), 1);
  EXPECT_TRUE(kv.fits_blocks(kv.advance_growth_blocks()));
  kv.advance(1);
  EXPECT_EQ(kv.occupied_blocks(), 4);
  EXPECT_EQ(kv.inspect(0).tokens, 13);
  EXPECT_EQ(kv.inspect(0).blocks, 4);
  EXPECT_TRUE(kv.audit());
  // A quiet decode run commits 8 advances at once: counts 16 and 20 are
  // block multiples, so it allocates blocks 5 and 6.
  EXPECT_EQ(kv.growth_blocks_over(8), 2);
  kv.advance(8);
  kv.end_advance(slot);
  EXPECT_EQ(kv.inspect(0).tokens, 21);
  EXPECT_EQ(kv.occupied_blocks(), 6);
  EXPECT_TRUE(kv.audit());
  kv.release_slot(slot);
  EXPECT_EQ(kv.occupied_blocks(), 0);
  EXPECT_TRUE(kv.audit());
}

TEST(PagedKvTest, AdmissionChecksWholeBlocks) {
  KvCacheManager kv = paged(/*capacity=*/8.0, /*block_tokens=*/4,
                            /*prefix_cache=*/false);
  EXPECT_EQ(kv.capacity_blocks(), 2);
  EXPECT_FALSE(kv.try_admit(0, 9));  // 3 blocks > 2
  const std::int32_t slot = kv.try_admit(0, 8).value();  // exactly 2 blocks
  kv.begin_advance(slot);
  EXPECT_EQ(kv.advance_growth_blocks(), 1);
  EXPECT_FALSE(kv.fits_blocks(1));  // a 3rd block does not exist
  kv.end_advance(slot);
  EXPECT_TRUE(kv.audit());
}

TEST(PagedKvTest, FragmentationGaugeCountsLastBlockWaste) {
  KvCacheManager kv = paged(/*capacity=*/64.0, /*block_tokens=*/8,
                            /*prefix_cache=*/false);
  EXPECT_DOUBLE_EQ(kv.internal_fragmentation(), 0.0);  // nothing mapped
  EXPECT_TRUE(kv.try_admit(0, 5));  // 1 block, 3 tokens wasted
  EXPECT_DOUBLE_EQ(kv.internal_fragmentation(), 3.0 / 8.0);
  EXPECT_TRUE(kv.try_admit(1, 8));  // full block, no waste
  EXPECT_DOUBLE_EQ(kv.internal_fragmentation(), 3.0 / 16.0);
  // Block size 1 can never waste.
  KvCacheManager unit = paged(64.0, 1, false);
  EXPECT_TRUE(unit.try_admit(0, 5));
  EXPECT_DOUBLE_EQ(unit.internal_fragmentation(), 0.0);
}

// --- Input validation (satellite) --------------------------------------------

TEST(PagedKvValidationTest, RejectsDegenerateConfigs) {
  EXPECT_THROW(KvCacheManager(0.0, 1.0), ConfigError);       // empty budget
  EXPECT_THROW(KvCacheManager(-100.0, 1.0), ConfigError);    // negative
  EXPECT_THROW(KvCacheManager(100.0, 0.0), ConfigError);     // free tokens
  EXPECT_THROW(KvCacheManager(100.0, -1.0), ConfigError);
  EXPECT_THROW(KvCacheManager(100.0, 1.0, EvictionPolicy::kPreemptNewest,
                              -1.0),
               ConfigError);  // negative host pool
  EXPECT_THROW(KvCacheManager(100.0, 1.0, EvictionPolicy::kPreemptNewest,
                              1024 * GiB, /*block_tokens=*/0),
               ConfigError);
  EXPECT_THROW(KvCacheManager(100.0, 1.0, EvictionPolicy::kPreemptNewest,
                              1024 * GiB, /*block_tokens=*/-8),
               ConfigError);
  // A budget smaller than one block can never admit anything.
  EXPECT_THROW(KvCacheManager(7.0, 1.0, EvictionPolicy::kPreemptNewest,
                              1024 * GiB, /*block_tokens=*/8),
               ConfigError);
}

TEST(PagedKvValidationTest, SchedulerRejectsBadBlockConfig) {
  KvCacheManager kv = paged(1e6, 1, false);
  SchedulerConfig config;
  config.kv_block_tokens = 0;
  EXPECT_THROW(ContinuousBatchScheduler(config, &kv), ConfigError);
  config.kv_block_tokens = -4;
  EXPECT_THROW(ContinuousBatchScheduler(config, &kv), ConfigError);
  // The scheduler's config must agree with the manager it drives.
  config.kv_block_tokens = 16;
  EXPECT_THROW(ContinuousBatchScheduler(config, &kv), ConfigError);
  config.kv_block_tokens = 1;
  config.enable_prefix_cache = true;
  EXPECT_THROW(ContinuousBatchScheduler(config, &kv), ConfigError);
  config.enable_prefix_cache = false;
  EXPECT_NO_THROW(ContinuousBatchScheduler(config, &kv));
}

TEST(PagedKvValidationTest, ScenarioValidateRejectsBadBlockTokens) {
  ServingScenario scenario =
      llama7b_baseline_scenario(1, ir::DType::kInt4);
  scenario.scheduler.kv_block_tokens = 0;
  EXPECT_THROW(scenario.validate(), ConfigError);
  scenario.scheduler.kv_block_tokens = 16;
  EXPECT_NO_THROW(scenario.validate());
  // A negative budget override must fail loudly, not silently fall back
  // to the HBM-derived budget.
  scenario.kv_budget_override = -1.0;
  EXPECT_THROW(scenario.validate(), ConfigError);
}

// --- Prefix sharing ----------------------------------------------------------

TEST(PrefixCacheTest, SecondRequestSharesComputedFullBlocks) {
  KvCacheManager kv = paged(1000.0, /*block_tokens=*/4, /*prefix_cache=*/true);
  KvCacheManager::AdmitOutcome outcome;
  // First admission registers the prefix blocks but hits nothing.
  const std::int32_t first =
      kv.try_admit(0, /*tokens=*/11, /*priority=*/0, /*prefix_id=*/7,
                   /*prefix_len=*/8, /*prompt_len=*/10, &outcome)
          .value();
  EXPECT_EQ(outcome.prefix_hit_tokens, 0);
  EXPECT_EQ(outcome.shared_blocks, 0);
  EXPECT_EQ(outcome.lookup_tokens, 8);
  EXPECT_EQ(kv.inspect(0).shared_blocks, 2);  // self-registered, refcount 1
  // Until the registrant's prefill passes the blocks, nobody can hit them.
  KvCacheManager::AdmitOutcome premature;
  kv.release_slot(kv.try_admit(1, 11, 0, 7, 8, 10, &premature).value());
  EXPECT_EQ(premature.prefix_hit_tokens, 0);
  // Prefill completes -> the blocks become hittable.
  kv.note_prefilled_slot(first, 10);
  KvCacheManager::AdmitOutcome hit;
  ASSERT_TRUE(kv.try_admit(2, 11, 0, 7, 8, 10, &hit));
  EXPECT_EQ(hit.prefix_hit_tokens, 8);
  EXPECT_EQ(hit.shared_blocks, 2);
  EXPECT_EQ(hit.cow_blocks, 0);  // prefix_len is block-aligned: no tail
  EXPECT_EQ(kv.inspect(2).shared_blocks, 2);
  // The two shared blocks are physical once: 0 maps 3 blocks, 2 maps 3
  // blocks, but only 4 distinct blocks exist.
  EXPECT_EQ(kv.occupied_blocks(), 4);
  EXPECT_TRUE(kv.audit());
}

TEST(PrefixCacheTest, ReleasedPrefixBlocksStayCachedAndHittable) {
  KvCacheManager kv = paged(1000.0, 4, true);
  const std::int32_t slot = kv.try_admit(0, 11, 0, /*prefix_id=*/3,
                                         /*prefix_len=*/8, /*prompt_len=*/10)
                                .value();
  kv.note_prefilled_slot(slot, 10);
  kv.release_slot(slot);
  // Fully released but computed: the blocks stay cached, occupying pages.
  EXPECT_EQ(kv.cached_block_count(), 2);
  EXPECT_EQ(kv.occupied_blocks(), 2);
  EXPECT_EQ(kv.referenced_blocks(), 0);
  EXPECT_TRUE(kv.audit());
  // A later same-prefix request hits them even though lifetimes never
  // overlapped — the cross-request reuse that makes chatbot prefixes pay.
  KvCacheManager::AdmitOutcome hit;
  ASSERT_TRUE(kv.try_admit(1, 11, 0, 3, 8, 10, &hit));
  EXPECT_EQ(hit.prefix_hit_tokens, 8);
  EXPECT_EQ(kv.cached_block_count(), 0);  // re-referenced
  EXPECT_TRUE(kv.audit());
}

TEST(PrefixCacheTest, PartialTailIsServedCopyOnWrite) {
  KvCacheManager kv = paged(1000.0, 4, true);
  // prefix 10 = 2 full blocks + a 2-token tail inside block 2.
  const std::int32_t donor = kv.try_admit(0, 13, 0, /*prefix_id=*/1,
                                          /*prefix_len=*/10, /*prompt_len=*/12)
                                 .value();
  kv.note_prefilled_slot(donor, 12);
  KvCacheManager::AdmitOutcome hit;
  ASSERT_TRUE(kv.try_admit(1, 13, 0, 1, 10, 12, &hit));
  EXPECT_EQ(hit.prefix_hit_tokens, 10);  // tail tokens reused via the copy
  EXPECT_EQ(hit.shared_blocks, 2);       // full blocks by reference
  EXPECT_EQ(hit.cow_blocks, 1);          // the tail block is copied
  EXPECT_TRUE(kv.audit());
  // The donor leaving drops the tail entry: later admissions still share
  // the full blocks but fall back to prefilling the tail themselves.
  kv.release_slot(donor);
  KvCacheManager::AdmitOutcome no_tail;
  ASSERT_TRUE(kv.try_admit(2, 13, 0, 1, 10, 12, &no_tail));
  EXPECT_EQ(no_tail.prefix_hit_tokens, 8);
  EXPECT_EQ(no_tail.cow_blocks, 0);
  EXPECT_TRUE(kv.audit());
}

TEST(PrefixCacheTest, HitCappedAtPromptMinusOne) {
  // The whole prompt IS the (aligned) prefix: the final prompt token must
  // still be recomputed for logits, so the hit stops one token short while
  // every prefix block is still mapped by reference.
  KvCacheManager kv = paged(1000.0, 4, true);
  kv.note_prefilled_slot(kv.try_admit(0, 9, 0, /*prefix_id=*/5,
                                      /*prefix_len=*/8, /*prompt_len=*/8)
                             .value(),
                         8);
  KvCacheManager::AdmitOutcome hit;
  ASSERT_TRUE(kv.try_admit(1, 9, 0, 5, 8, 8, &hit));
  EXPECT_EQ(hit.prefix_hit_tokens, 7);
  EXPECT_EQ(hit.shared_blocks, 2);
  EXPECT_TRUE(kv.audit());
}

TEST(PrefixCacheTest, CachedBlocksAreReclaimedLruUnderPressure) {
  // 6-block device.  Prefix A (2 blocks) is cached, then prefix B (2
  // blocks) is cached more recently.  A 4-block unique admission finds 2
  // free blocks and must reclaim exactly the 2 OLDER cached blocks (A's),
  // leaving B hittable.
  KvCacheManager kv = paged(24.0, 4, true);
  const auto cache_prefix = [&kv](std::int64_t id, std::int64_t prefix_id) {
    const std::int32_t slot = kv.try_admit(id, 9, 0, prefix_id, 8, 9).value();
    kv.note_prefilled_slot(slot, 9);
    kv.release_slot(slot);
  };
  cache_prefix(0, /*prefix_id=*/100);
  cache_prefix(1, /*prefix_id=*/200);
  EXPECT_EQ(kv.cached_block_count(), 4);
  EXPECT_EQ(kv.occupied_blocks(), 4);
  // 4 blocks: 2 free + 2 reclaimed.
  const std::int32_t unique = kv.try_admit(2, 16).value();
  EXPECT_EQ(kv.cached_block_count(), 2);
  EXPECT_TRUE(kv.audit());
  kv.release_slot(unique);
  // The survivors are prefix B's blocks: a B lookup hits both, an A
  // lookup none (and quietly re-registers A for the future).
  KvCacheManager::AdmitOutcome hit_b;
  kv.release_slot(kv.try_admit(3, 9, 0, 200, 8, 9, &hit_b).value());
  EXPECT_EQ(hit_b.prefix_hit_tokens, 8);
  EXPECT_EQ(hit_b.shared_blocks, 2);
  KvCacheManager::AdmitOutcome hit_a;
  ASSERT_TRUE(kv.try_admit(4, 9, 0, 100, 8, 9, &hit_a));
  EXPECT_EQ(hit_a.prefix_hit_tokens, 0);
  EXPECT_TRUE(kv.audit());
}

TEST(PrefixCacheTest, SwapOutPrivatizesSharedBlocks) {
  KvCacheManager kv = paged(1000.0, 4, true, EvictionPolicy::kSwapToHost);
  kv.note_prefilled_slot(kv.try_admit(0, 11, 0, /*prefix_id=*/2, 8, 10).value(),
                         10);
  const std::int32_t sharer = kv.try_admit(1, 11, 0, 2, 8, 10).value();
  EXPECT_EQ(kv.inspect(1).shared_blocks, 2);
  ASSERT_TRUE(kv.try_swap_out_slot(sharer));
  // The host copy is whole (3 blocks); the device keeps the shared blocks
  // alive for request 0.
  EXPECT_EQ(kv.inspect().host_used_blocks, 3);
  EXPECT_EQ(kv.inspect(0).shared_blocks, 2);
  EXPECT_TRUE(kv.audit());
  ASSERT_TRUE(kv.try_swap_in(1));
  EXPECT_EQ(kv.inspect(1).shared_blocks, 0);  // returns private
  EXPECT_EQ(kv.inspect(1).tokens, 11);
  EXPECT_TRUE(kv.audit());
}

TEST(PrefixCacheTest, LruOrderSurvivesRecycledBlockIds) {
  // 16-block device, 4-token blocks, 4-block (16-token) prefixes.
  KvCacheManager kv = paged(64.0, 4, true);
  // Warm-up: cache one prefix's 4 blocks, then reclaim all of them.  The
  // free list hands their ids back last-freed first, so prefix A below
  // gets its blocks under DESCENDING ids and prefix B under fresh ones:
  // id order no longer matches release order.
  const std::int32_t warm = kv.try_admit(0, 18, 0, /*prefix_id=*/1, 16, 17)
                                .value();
  kv.note_prefilled_slot(warm, 17);
  kv.release_slot(warm);
  // The whole device: reclaims all 4.
  kv.release_slot(kv.try_admit(1, 64).value());
  EXPECT_EQ(kv.cached_block_count(), 0);
  EXPECT_EQ(kv.inspect().shared_block_ids, 4);
  // Release A, then B: A's blocks are the older cached ones.
  const std::int32_t a = kv.try_admit(2, 18, 0, /*prefix_id=*/10, 16, 17)
                             .value();
  const std::int32_t b = kv.try_admit(3, 18, 0, /*prefix_id=*/20, 16, 17)
                             .value();
  kv.note_prefilled_slot(a, 17);
  kv.note_prefilled_slot(b, 17);
  kv.release_slot(a);
  kv.release_slot(b);
  EXPECT_EQ(kv.cached_block_count(), 8);
  EXPECT_EQ(kv.inspect().shared_block_ids, 8);  // A reused the warm-up ids
  // Reclaim exactly 2: 8 free + 2 cached.
  const std::int32_t big = kv.try_admit(4, 40).value();
  EXPECT_EQ(kv.cached_block_count(), 6);
  EXPECT_TRUE(kv.audit());
  kv.release_slot(big);
  // A's blocks 0 and 1 went first: an A lookup hits nothing, registers
  // blocks 0 and 1 afresh and finds blocks 2 and 3 still present.
  // (Reclaiming by block id would have taken A's blocks 3 and 2, leaving
  // blocks 0 and 1 hittable.)
  KvCacheManager::AdmitOutcome hit_a;
  ASSERT_TRUE(kv.try_admit(5, 18, 0, 10, 16, 17, &hit_a));
  EXPECT_EQ(hit_a.prefix_hit_tokens, 0);
  EXPECT_EQ(kv.inspect(5).shared_blocks, 2);
  // B is untouched.
  KvCacheManager::AdmitOutcome hit_b;
  ASSERT_TRUE(kv.try_admit(6, 18, 0, 20, 16, 17, &hit_b));
  EXPECT_EQ(hit_b.prefix_hit_tokens, 16);
  EXPECT_EQ(hit_b.shared_blocks, 4);
  EXPECT_TRUE(kv.audit());
}

TEST(PrefixCacheTest, ChurnRecyclesBlockIds) {
  // Every request carries a fresh prefix, so each admission registers 4
  // new shared blocks; at most 3 requests are resident at a time.  Cached
  // blocks pile up until pressure reclaims them, and their ids must be
  // reused: the slab never outgrows the device.
  KvCacheManager kv = paged(64.0, 4, true);
  std::vector<std::int32_t> slots;  // by request id
  for (std::int64_t id = 0; id < 400; ++id) {
    if (id >= 3) kv.release_slot(slots[static_cast<std::size_t>(id - 3)]);
    slots.push_back(kv.try_admit(id, 18, 0, /*prefix_id=*/id, 16, 17).value());
    ASSERT_EQ(kv.inspect(id).shared_blocks, 4);
    kv.note_prefilled_slot(slots.back(), 17);
    ASSERT_TRUE(kv.audit()) << "request " << id;
    ASSERT_LE(kv.inspect().shared_block_ids, kv.capacity_blocks());
  }
  EXPECT_GT(kv.cached_blocks_reclaimed_total(), 1000);
}

TEST(PrefixCacheTest, HitsAdmitPastTheFreeAndCachedBlocks) {
  // 8 blocks of 4 tokens.  A resident holds a computed 2-block prefix and
  // a private block; a 4-block filler leaves one block free and none
  // cached.  A 3-block same-prefix admission needs more than free +
  // cached, but its 2 hits leave 1 block to allocate: it must pass the
  // O(1) bound and be admitted.
  KvCacheManager kv = paged(32.0, 4, true);
  const std::int32_t holder = kv.try_admit(0, 10, 0, /*prefix_id=*/9,
                                           /*prefix_len=*/8, /*prompt_len=*/9)
                                  .value();
  kv.note_prefilled_slot(holder, 9);
  ASSERT_TRUE(kv.try_admit(1, 16));
  ASSERT_EQ(kv.free_blocks(), 1);
  ASSERT_EQ(kv.cached_block_count(), 0);
  KvCacheManager::AdmitOutcome outcome;
  const std::int32_t sharer = kv.try_admit(2, 10, 0, 9, 8, 9, &outcome).value();
  EXPECT_EQ(outcome.shared_blocks, 2);
  EXPECT_EQ(outcome.prefix_hit_tokens, 8);
  EXPECT_EQ(kv.free_blocks(), 0);
  EXPECT_TRUE(kv.audit());

  // Cached hits are no help: once the prefix's holders leave, its blocks
  // are the only cached ones, and a hit takes them off the reclaimable
  // pool.  A 4-block admission with 1 free block and 2 cached hits passes
  // the bound (4 - 2 <= 1 + 2) but not the exact check (2 > 1 + 0), and
  // changes nothing.
  kv.release_slot(holder);
  kv.release_slot(sharer);
  ASSERT_EQ(kv.cached_block_count(), 2);
  ASSERT_TRUE(kv.try_admit(3, 4));
  ASSERT_EQ(kv.free_blocks(), 1);
  const std::int64_t allocated = kv.blocks_allocated_total();
  EXPECT_FALSE(kv.try_admit(4, 14, 0, 9, 8, 13, &outcome));
  EXPECT_EQ(kv.find_slot(4), -1);
  EXPECT_EQ(kv.cached_block_count(), 2);
  EXPECT_EQ(kv.free_blocks(), 1);
  EXPECT_EQ(kv.blocks_allocated_total(), allocated);
  EXPECT_TRUE(kv.audit());
  // A 6-block probe is past the bound (6 - 2 > 1 + 2): rejected in O(1).
  EXPECT_FALSE(kv.try_admit(5, 21, 0, 9, 8, 20));
  EXPECT_TRUE(kv.audit());
}

TEST(PrefixCacheTest, ChunkedPrefillMakesEachRegisteredBlockHittable) {
  // A 12-token prefix is 3 full 4-token blocks.  Its registrant prefills
  // in chunks; a same-prefix probe admitted after each chunk hits exactly
  // the blocks the prefill has passed, and leaves again.
  KvCacheManager kv = paged(1000.0, 4, true);
  const auto slot = kv.try_admit(0, 15, 0, /*prefix_id=*/4,
                                 /*prefix_len=*/12, /*prompt_len=*/14);
  ASSERT_TRUE(slot.has_value());
  ASSERT_EQ(kv.inspect(0).shared_blocks, 3);  // all three registered
  const std::vector<std::pair<std::int64_t, std::int64_t>> steps = {
      {0, 0}, {3, 0}, {4, 1}, {7, 1}, {8, 2}, {11, 2}, {12, 3}, {14, 3}};
  std::int64_t probe = 100;
  for (const auto& [computed, hittable] : steps) {
    SCOPED_TRACE("prefilled " + std::to_string(computed));
    kv.note_prefilled_slot(*slot, computed);
    KvCacheManager::AdmitOutcome outcome;
    const std::int32_t probe_slot =
        kv.try_admit(probe, 15, 0, 4, 12, 14, &outcome).value();
    EXPECT_EQ(outcome.shared_blocks, hittable);
    EXPECT_EQ(outcome.prefix_hit_tokens, hittable * 4);
    EXPECT_EQ(kv.inspect(probe).shared_blocks, hittable);  // registers nothing
    EXPECT_TRUE(kv.audit());
    kv.release_slot(probe_slot);
    ++probe;
  }
}

// --- Seeded churn against a brute-force reference ----------------------------

/// The prefix cache's semantics over the most direct containers: blocks
/// keyed by (prefix id, block index) in one std::map, the LRU victim found
/// by scanning for the oldest release stamp, occupancy recounted from
/// scratch on every query.  Decode growth is a pass over the batch in
/// admission order, one token per growing entry, with a finisher released
/// at its place in that order.  Slow and obviously right; the flat store
/// and its advance clock must agree with it on every decision and every
/// AdmitOutcome.
class PrefixCacheReference {
 public:
  PrefixCacheReference(std::int64_t capacity_blocks,
                       std::int64_t host_blocks, std::int64_t block_tokens)
      : capacity_(capacity_blocks),
        host_capacity_(host_blocks),
        block_(block_tokens) {}

  bool try_admit(std::int64_t id, std::int64_t tokens,
                 std::int64_t prefix_id, std::int64_t prefix_len,
                 std::int64_t prompt_len, bool paused,
                 KvCacheManager::AdmitOutcome* outcome) {
    *outcome = KvCacheManager::AdmitOutcome{};
    const bool eligible = !paused && prefix_id >= 0 && prefix_len > 0 &&
                          prompt_len > 1 && tokens >= prompt_len;
    const std::int64_t full = prefix_len / block_;
    std::vector<Key> hits;
    std::int64_t hit_tokens = 0;
    std::int64_t cow = 0;
    if (eligible) {
      for (std::int64_t k = 0; k < full; ++k) {
        const auto it = blocks_.find({prefix_id, k});
        if (it == blocks_.end() || !it->second.computed) break;
        hits.push_back(it->first);
      }
      hit_tokens = static_cast<std::int64_t>(hits.size()) * block_;
      const auto donor = donors_.find(prefix_id);
      if (static_cast<std::int64_t>(hits.size()) == full &&
          prefix_len % block_ != 0 && donor != donors_.end() &&
          device_.at(donor->second).computed >= prefix_len) {
        cow = 1;
        hit_tokens = prefix_len;
      }
      hit_tokens = std::min(hit_tokens, prompt_len - 1);
    }
    const std::int64_t new_blocks =
        blocks_for(tokens) - static_cast<std::int64_t>(hits.size());
    std::int64_t referenced_hits = 0;
    for (const Key& key : hits) referenced_hits += blocks_.at(key).ref > 0;
    // Everything not pinned by a resident sequence (or by this admission's
    // own hits) can be made free.
    if (referenced() + static_cast<std::int64_t>(hits.size()) -
            referenced_hits + new_blocks >
        capacity_) {
      return false;
    }
    for (const Key& key : hits) ++blocks_.at(key).ref;
    while (occupied() + new_blocks > capacity_) reclaim_oldest();
    Seq seq;
    seq.tokens = tokens;
    seq.computed = hit_tokens;
    seq.shared = hits;
    if (eligible) {
      seq.prefix_id = prefix_id;
      for (std::int64_t k = static_cast<std::int64_t>(hits.size()); k < full;
           ++k) {
        if (blocks_.count({prefix_id, k}) > 0) continue;
        Block block;
        block.ref = 1;
        block.registrant = id;
        blocks_[{prefix_id, k}] = block;
        seq.shared.push_back({prefix_id, k});
      }
      if (prefix_len % block_ != 0 && donors_.count(prefix_id) == 0) {
        donors_[prefix_id] = id;
      }
    }
    seq.private_blocks =
        blocks_for(tokens) - static_cast<std::int64_t>(seq.shared.size());
    seq.order = next_order_++;
    device_[id] = seq;
    outcome->lookup_tokens = eligible ? std::min(prefix_len, prompt_len - 1)
                                      : 0;
    outcome->prefix_hit_tokens = hit_tokens;
    outcome->shared_blocks = static_cast<std::int64_t>(hits.size());
    outcome->cow_blocks = cow;
    return true;
  }

  /// Blocks the next `steps` decode steps of `growing` allocate: one per
  /// block multiple among each entry's token counts before each step.
  std::int64_t growth_blocks(const std::set<std::int64_t>& growing,
                             std::int64_t steps = 1) const {
    std::int64_t blocks = 0;
    for (std::int64_t id : growing) {
      const std::int64_t tokens = device_.at(id).tokens;
      for (std::int64_t t = tokens; t < tokens + steps; ++t) {
        blocks += t % block_ == 0;
      }
    }
    return blocks;
  }
  bool fits(std::int64_t blocks) const {
    return referenced() + blocks <= capacity_;
  }

  /// One decode step over the batch in admission order: every entry in
  /// `growing` gains a token (a new block, when it needs one, is a free
  /// block or else the oldest cached one reclaimed), and `finisher`
  /// (-1 = none) is released at its place in that order.
  void decode_step(const std::set<std::int64_t>& growing,
                   std::int64_t finisher) {
    std::vector<std::pair<std::int64_t, std::int64_t>> batch;  // (order, id)
    for (const auto& [id, seq] : device_) batch.emplace_back(seq.order, id);
    std::sort(batch.begin(), batch.end());
    for (const auto& [order, id] : batch) {
      if (id == finisher) {
        release(id);
      } else if (growing.count(id) > 0) {
        Seq& seq = device_.at(id);
        const std::int64_t need =
            blocks_for(seq.tokens + 1) - blocks_for(seq.tokens);
        while (occupied() + need > capacity_) reclaim_oldest();
        ++seq.tokens;
        seq.private_blocks += need;
      }
    }
  }

  void note_prefilled(std::int64_t id, std::int64_t computed) {
    Seq& seq = device_.at(id);
    seq.computed = std::min(std::max(seq.computed, computed), seq.tokens);
    for (const Key& key : seq.shared) {
      Block& block = blocks_.at(key);
      if (block.registrant == id && (key.second + 1) * block_ <= seq.computed) {
        block.computed = true;
        block.registrant = -1;
      }
    }
  }

  void release(std::int64_t id) {
    leave_device(id);
    device_.erase(id);
  }

  bool try_swap_out(std::int64_t id) {
    const Seq seq = device_.at(id);
    const std::int64_t blocks = blocks_for(seq.tokens);
    if (host_used() + blocks > host_capacity_) return false;
    leave_device(id);
    device_.erase(id);
    Seq host;
    host.tokens = seq.tokens;
    host.computed = seq.computed;
    host.private_blocks = blocks;
    host_[id] = host;
    return true;
  }

  bool try_swap_in(std::int64_t id) {
    const Seq seq = host_.at(id);
    if (referenced() + seq.private_blocks > capacity_) return false;
    while (occupied() + seq.private_blocks > capacity_) reclaim_oldest();
    device_[id] = seq;
    device_[id].order = next_order_++;  // re-entry is the newest admission
    host_.erase(id);
    return true;
  }

  std::int64_t drop_cached() {
    std::int64_t dropped = 0;
    for (auto it = blocks_.begin(); it != blocks_.end();) {
      if (it->second.ref == 0) {
        it = blocks_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    return dropped;
  }

  std::int64_t occupied() const {
    std::int64_t blocks = static_cast<std::int64_t>(blocks_.size());
    for (const auto& [id, seq] : device_) blocks += seq.private_blocks;
    return blocks;
  }
  std::int64_t cached() const {
    std::int64_t count = 0;
    for (const auto& [key, block] : blocks_) count += block.ref == 0;
    return count;
  }
  std::int64_t shared_count(std::int64_t id) const {
    return static_cast<std::int64_t>(device_.at(id).shared.size());
  }
  std::int64_t tokens(std::int64_t id) const { return device_.at(id).tokens; }
  std::int64_t blocks(std::int64_t id) const {
    return blocks_for(device_.at(id).tokens);
  }

 private:
  using Key = std::pair<std::int64_t, std::int64_t>;  // (prefix id, k)
  struct Block {
    std::int64_t ref = 0;
    bool computed = false;
    std::int64_t registrant = -1;
    std::int64_t released_at = -1;  ///< stamp of the last unref to 0
  };
  struct Seq {
    std::int64_t tokens = 0;
    std::int64_t computed = 0;
    std::int64_t prefix_id = -1;
    std::int64_t private_blocks = 0;
    std::int64_t order = 0;  ///< admission (or swap-in) order
    std::vector<Key> shared;
  };

  std::int64_t blocks_for(std::int64_t tokens) const {
    return (tokens + block_ - 1) / block_;
  }
  std::int64_t referenced() const { return occupied() - cached(); }
  std::int64_t host_used() const {
    std::int64_t blocks = 0;
    for (const auto& [id, seq] : host_) blocks += seq.private_blocks;
    return blocks;
  }
  void reclaim_oldest() {
    auto oldest = blocks_.end();
    for (auto it = blocks_.begin(); it != blocks_.end(); ++it) {
      if (it->second.ref == 0 &&
          (oldest == blocks_.end() ||
           it->second.released_at < oldest->second.released_at)) {
        oldest = it;
      }
    }
    ASSERT_NE(oldest, blocks_.end());
    blocks_.erase(oldest);
  }
  void leave_device(std::int64_t id) {
    const Seq& seq = device_.at(id);
    for (const Key& key : seq.shared) {
      Block& block = blocks_.at(key);
      if (--block.ref > 0) continue;
      if (block.computed) {
        block.released_at = next_stamp_++;
      } else {
        blocks_.erase(key);
      }
    }
    const auto donor = donors_.find(seq.prefix_id);
    if (donor != donors_.end() && donor->second == id) donors_.erase(donor);
  }

  std::int64_t capacity_, host_capacity_, block_;
  std::int64_t next_stamp_ = 0;
  std::int64_t next_order_ = 0;
  std::map<Key, Block> blocks_;
  std::map<std::int64_t, std::int64_t> donors_;  ///< prefix id -> entry
  std::map<std::int64_t, Seq> device_, host_;
};

TEST(PrefixCacheChurnTest, MatchesBruteForceReference) {
  // Admission, prefill notes, release, swap and cache drops interleave with
  // decode steps on the advance clock, as on the serving path: growing
  // entries stay advancing across operations, a step may release a
  // finisher (the growth admitted before it allocated first when the free
  // blocks fall short) and a quiet run commits several advances at once.
  for (std::int64_t block : {4, 16}) {
    for (bool partial_tail : {false, true}) {
      for (std::uint64_t seed : {7ull, 41ull, 2024ull}) {
        const std::int64_t prefix_len = 3 * block + (partial_tail ? block / 2
                                                                  : 0);
        const std::int64_t capacity_blocks = 40;
        const std::int64_t host_blocks = 24;
        KvCacheManager kv =
            paged(static_cast<double>(capacity_blocks * block), block, true,
                  EvictionPolicy::kSwapToHost,
                  static_cast<double>(host_blocks * block));
        PrefixCacheReference ref(capacity_blocks, host_blocks, block);
        Rng rng(seed);
        std::vector<std::int64_t> device, host;
        std::map<std::int64_t, std::int32_t> slot_of;  // resident ids
        std::set<std::int64_t> growing;  // resident ids advancing
        std::map<std::int64_t, std::int64_t> prompt_of;
        bool paused = false;
        const auto pick = [&rng](const std::vector<std::int64_t>& ids) {
          return ids[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(ids.size()) - 1))];
        };
        const auto take = [&rng](std::vector<std::int64_t>* ids) {
          const std::size_t i = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(ids->size()) - 1));
          const std::int64_t id = (*ids)[i];
          ids->erase(ids->begin() + static_cast<std::ptrdiff_t>(i));
          return id;
        };
        const auto leave = [&](std::int64_t id) {
          device.erase(std::find(device.begin(), device.end(), id));
          slot_of.erase(id);
          growing.erase(id);
        };
        for (std::int64_t op = 0; op < 1500; ++op) {
          const std::int64_t kind = rng.uniform_int(0, 10);
          SCOPED_TRACE(::testing::Message()
                       << "block " << block << " tail " << partial_tail
                       << " seed " << seed << " op " << op << " kind "
                       << kind);
          if (kind <= 2 || device.empty()) {
            // Admit: most requests carry one of 4 prefixes; a prompt that
            // is all prefix exercises the prompt_len - 1 hit cap.
            const std::int64_t prefix_id =
                rng.uniform_int(0, 4) == 0 ? -1 : rng.uniform_int(0, 3);
            const std::int64_t prompt =
                prefix_len + rng.uniform_int(0, 2 * block);
            const std::int64_t tokens = prompt + rng.uniform_int(1, block);
            KvCacheManager::AdmitOutcome got, want;
            const std::optional<std::int32_t> slot =
                kv.try_admit(op, tokens, 0, prefix_id,
                             prefix_id >= 0 ? prefix_len : 0, prompt, &got);
            ASSERT_EQ(slot.has_value(),
                      ref.try_admit(op, tokens, prefix_id,
                                    prefix_id >= 0 ? prefix_len : 0, prompt,
                                    paused, &want));
            if (slot) {
              ASSERT_EQ(got.lookup_tokens, want.lookup_tokens);
              ASSERT_EQ(got.prefix_hit_tokens, want.prefix_hit_tokens);
              ASSERT_EQ(got.shared_blocks, want.shared_blocks);
              ASSERT_EQ(got.cow_blocks, want.cow_blocks);
              ASSERT_EQ(kv.inspect(op).shared_blocks, ref.shared_count(op));
              device.push_back(op);
              slot_of[op] = *slot;
              prompt_of[op] = prompt;
            }
          } else if (kind == 3) {
            const std::int64_t id = pick(device);
            const std::int64_t computed =
                rng.uniform_int(0, prompt_of.at(id));
            kv.note_prefilled_slot(slot_of.at(id), computed);
            ref.note_prefilled(id, computed);
          } else if (kind == 4) {
            // An advancing entry ends its advance as it leaves.
            const std::int64_t id = pick(device);
            kv.release_slot(slot_of.at(id));
            ref.release(id);
            leave(id);
          } else if (kind == 5) {
            // The scheduler stops a decoder's advance before swapping it.
            const std::int64_t id = pick(device);
            const std::int32_t slot = slot_of.at(id);
            if (growing.erase(id) > 0) kv.end_advance(slot);
            const bool out = kv.try_swap_out_slot(slot);
            ASSERT_EQ(out, ref.try_swap_out(id));
            if (out) {
              leave(id);
              host.push_back(id);
            }
          } else if (kind == 6 && !host.empty()) {
            const std::int64_t id = take(&host);
            const std::optional<std::int32_t> slot = kv.try_swap_in(id);
            ASSERT_EQ(slot.has_value(), ref.try_swap_in(id));
            if (slot) {
              device.push_back(id);
              slot_of[id] = *slot;
            } else {
              host.push_back(id);
            }
          } else if (kind == 7) {
            // Decode steps.  Half the time a non-growing entry finishes:
            // in the first step whose growth outruns the free blocks (the
            // release-order case), else in the last.  Otherwise, half the
            // time, the steps run as one quiet advance when their growth
            // fits the free blocks.
            std::vector<std::int64_t> idle;
            for (std::int64_t id : device) {
              if (growing.count(id) == 0) idle.push_back(id);
            }
            std::int64_t finisher =
                !idle.empty() && rng.uniform_int(0, 1) == 0 ? pick(idle) : -1;
            const std::int64_t steps = rng.uniform_int(1, 2 * block);
            const std::int64_t run_blocks = kv.growth_blocks_over(steps);
            ASSERT_EQ(run_blocks, ref.growth_blocks(growing, steps));
            if (finisher < 0 && steps > 1 && rng.uniform_int(0, 1) == 0 &&
                run_blocks <= kv.free_blocks()) {
              kv.advance(steps);
              for (std::int64_t i = 0; i < steps; ++i) {
                ref.decode_step(growing, -1);
              }
            } else {
              for (std::int64_t i = 0; i < steps; ++i) {
                const std::int64_t need = kv.advance_growth_blocks();
                ASSERT_EQ(need, ref.growth_blocks(growing));
                const bool fits = kv.fits_blocks(need);
                ASSERT_EQ(fits, ref.fits(need));
                if (!fits) break;
                const bool ordered = need > kv.free_blocks();
                const std::int64_t leaving =
                    ordered || i + 1 == steps ? finisher : -1;
                if (leaving >= 0) {
                  const std::int32_t slot = slot_of.at(leaving);
                  if (ordered) {
                    kv.grow_advancing(kv.advance_blocks_admitted_before(slot));
                  }
                  kv.release_slot(slot);
                }
                kv.advance(1);
                ref.decode_step(growing, leaving);
                if (leaving >= 0) {
                  leave(leaving);
                  finisher = -1;
                }
                ASSERT_TRUE(kv.audit());
              }
            }
          } else if (kind == 8) {
            if (rng.uniform_int(0, 3) == 0) {
              ASSERT_EQ(kv.drop_cached_blocks(), ref.drop_cached());
            }
          } else if (kind == 9) {
            paused = rng.uniform_int(0, 2) == 0;
            kv.set_prefix_admission_paused(paused);
          } else if (kind == 10) {
            // An entry starts or stops decoding.
            const std::int64_t id = pick(device);
            if (growing.erase(id) > 0) {
              kv.end_advance(slot_of.at(id));
            } else {
              kv.begin_advance(slot_of.at(id));
              growing.insert(id);
            }
          }
          ASSERT_TRUE(kv.audit());
          ASSERT_EQ(kv.occupied_blocks(), ref.occupied());
          ASSERT_EQ(kv.cached_block_count(), ref.cached());
          ASSERT_EQ(kv.advancing_count(),
                    static_cast<std::int64_t>(growing.size()));
          ASSERT_LE(kv.inspect().shared_block_ids, capacity_blocks);
          for (const auto& [id, slot] : slot_of) {
            ASSERT_EQ(kv.find_slot(id), slot);
            const KvCacheManager::Inspection entry = kv.inspect(id);
            ASSERT_EQ(entry.tokens, ref.tokens(id)) << "request " << id;
            ASSERT_EQ(entry.blocks, ref.blocks(id)) << "request " << id;
          }
        }
      }
    }
  }
}

// --- Victim order from the admit-order list -----------------------------------

TEST(VictimIndexTest, MatchesBruteForceScanUnderChurn) {
  // The admit-order list (newest / oldest resident) and the slot-array
  // priority scan must reproduce the historical full-scan victim choice
  // exactly, across policies, decode growth, releases, swap-outs, swap-ins
  // (re-entering as the newest admission) and fault invalidations.  Slots
  // handed out must be recycled ones while any are free.
  struct Shadow {
    std::int64_t tokens, admit_seq, priority;
  };
  for (EvictionPolicy policy :
       {EvictionPolicy::kPreemptNewest, EvictionPolicy::kSwapToHost,
        EvictionPolicy::kPriorityVictim}) {
    SCOPED_TRACE("policy " + eviction_policy_name(policy));
    KvCacheManager kv = paged(1e6, 4, false, policy);
    std::map<std::int64_t, Shadow> shadow;  // resident
    std::map<std::int64_t, Shadow> host;    // swapped out
    std::map<std::int64_t, std::int32_t> slot_of;
    std::set<std::int32_t> free_slots;
    std::int32_t slots_made = 0;
    std::int64_t shadow_seq = 0;
    Rng rng(77);
    const auto brute_force = [&]() {
      // The pre-paging reference scan, verbatim semantics.
      std::int64_t exempt = -1;
      if (policy == EvictionPolicy::kPriorityVictim) {
        std::int64_t eligible = 0;
        std::int64_t oldest_seq = -1;
        for (const auto& [id, entry] : shadow) {
          ++eligible;
          if (exempt < 0 || entry.admit_seq < oldest_seq) {
            exempt = id;
            oldest_seq = entry.admit_seq;
          }
        }
        if (eligible < 2) exempt = -1;
      }
      std::int64_t victim = -1;
      const Shadow* victim_entry = nullptr;
      for (const auto& [id, entry] : shadow) {
        if (id == exempt) continue;
        const auto better = [&](const Shadow& a, std::int64_t a_id,
                                const Shadow& b, std::int64_t b_id) {
          if (policy == EvictionPolicy::kPriorityVictim) {
            if (a.priority != b.priority) return a.priority < b.priority;
            if (a.tokens != b.tokens) return a.tokens > b.tokens;
          }
          if (a.admit_seq != b.admit_seq) return a.admit_seq > b.admit_seq;
          return a_id > b_id;
        };
        if (victim_entry == nullptr ||
            better(entry, id, *victim_entry, victim)) {
          victim = id;
          victim_entry = &entry;
        }
      }
      return victim;
    };
    // A slot handed out is a freed one while any is free, else a new one.
    const auto take_slot = [&](std::int64_t id, std::int32_t slot) {
      if (free_slots.empty()) {
        EXPECT_EQ(slot, slots_made++);
      } else {
        EXPECT_EQ(free_slots.erase(slot), 1u) << "slot " << slot;
      }
      slot_of[id] = slot;
    };
    const auto free_slot = [&](std::int64_t id) {
      free_slots.insert(slot_of.at(id));
      slot_of.erase(id);
    };
    for (std::int64_t op = 0; op < 800; ++op) {
      SCOPED_TRACE("op " + std::to_string(op));
      const std::int64_t kind = rng.uniform_int(0, 6);
      if (kind == 0 || shadow.empty()) {
        const std::int64_t tokens = rng.uniform_int(1, 40);
        const std::int64_t priority = rng.uniform_int(0, 3);
        const auto slot = kv.try_admit(op, tokens, priority);
        ASSERT_TRUE(slot.has_value());
        take_slot(op, *slot);
        shadow[op] = Shadow{tokens, shadow_seq++, priority};
      } else if (kind == 1) {
        // Decode growth: a quiet run of 1..9 advances.
        const std::int32_t slot = slot_of.at(shadow.begin()->first);
        kv.begin_advance(slot);
        kv.advance(rng.uniform_int(1, 9));
        kv.end_advance(slot);
      } else if (kind == 2) {
        const std::int64_t id = shadow.rbegin()->first;
        kv.release_slot(slot_of.at(id));
        shadow.erase(id);
        free_slot(id);
      } else if (kind == 3) {
        // Swap out a random resident; it keeps its tokens and priority.
        auto it = std::next(shadow.begin(),
                            rng.uniform_int(0, static_cast<std::int64_t>(
                                                   shadow.size()) - 1));
        const std::int64_t id = it->first;
        ASSERT_TRUE(kv.try_swap_out_slot(slot_of.at(id)));
        host[id] = it->second;
        shadow.erase(it);
        free_slot(id);
      } else if (kind == 4 && !host.empty()) {
        // Swap in the oldest swapped id: it re-enters as the newest.
        const auto it = host.begin();
        const auto slot = kv.try_swap_in(it->first);
        ASSERT_TRUE(slot.has_value());
        take_slot(it->first, *slot);
        Shadow entry = it->second;
        entry.admit_seq = shadow_seq++;
        shadow[it->first] = entry;
        host.erase(it);
      } else if (kind == 5) {
        // A fault drops a resident's blocks, or a swapped one's.
        const bool drop_host = !host.empty() && rng.uniform_int(0, 1) == 0;
        if (drop_host) {
          const std::int64_t id = host.rbegin()->first;
          EXPECT_EQ(kv.invalidate_blocks(id),
                    (host.rbegin()->second.tokens + 3) / 4);
          host.erase(id);
        } else {
          const std::int64_t id = shadow.begin()->first;
          const std::int64_t blocks = (kv.inspect(id).tokens + 3) / 4;
          EXPECT_EQ(kv.invalidate_blocks(id), blocks);
          shadow.erase(id);
          free_slot(id);
        }
      }
      // Mirror token counts from the manager (growth above).
      for (auto& [id, entry] : shadow) {
        entry.tokens = kv.inspect(id).tokens;
        ASSERT_EQ(kv.find_slot(id), slot_of.at(id));
      }
      for (auto& [id, entry] : host) {
        ASSERT_EQ(kv.swapped_tokens(id), entry.tokens);
        ASSERT_EQ(kv.find_slot(id), -1);
      }
      ASSERT_EQ(kv.pick_eviction_victim(), brute_force());
      ASSERT_EQ(kv.inspect().resident_entries,
                static_cast<std::int64_t>(shadow.size()));
      ASSERT_TRUE(kv.audit());
    }
  }
}

// --- Seeded fuzz: alloc/grow/share/CoW/free (satellite) ----------------------

TEST(PagedKvFuzzTest, NoLeaksAcrossSeedsAndPolicies) {
  for (std::uint64_t seed : {3ull, 17ull, 101ull}) {
    for (EvictionPolicy policy :
         {EvictionPolicy::kPreemptNewest, EvictionPolicy::kSwapToHost,
          EvictionPolicy::kPriorityVictim}) {
      // 75 blocks: tight enough that decode growth outruns the free
      // blocks and reclaims cached prefix blocks.
      KvCacheManager kv = paged(/*capacity=*/300.0, /*block_tokens=*/4,
                                /*prefix_cache=*/true, policy,
                                /*host_capacity=*/200.0);
      Rng rng(seed);
      std::map<std::int64_t, std::int32_t> device;  // id -> slot
      std::set<std::int64_t> host;
      const auto release = [&](std::int64_t id) {
        kv.release_slot(device.at(id));
        device.erase(id);
      };
      for (std::int64_t op = 0; op < 600; ++op) {
        const std::int64_t kind = rng.uniform_int(0, 5);
        if (kind <= 1 || device.empty()) {
          // Admit, half the time with one of 3 shared prefixes (length 10:
          // 2 full blocks + a CoW tail).
          const bool tagged = rng.uniform_int(0, 1) == 0;
          const std::int64_t prompt = rng.uniform_int(12, 40);
          const std::int64_t prefix = tagged ? rng.uniform_int(0, 2) : -1;
          const std::optional<std::int32_t> slot =
              kv.try_admit(op, prompt + 1, rng.uniform_int(0, 3), prefix,
                           tagged ? 10 : 0, prompt);
          if (slot) {
            device[op] = *slot;
            // Prefill some arbitrary amount (possibly past the prefix).
            kv.note_prefilled_slot(*slot, rng.uniform_int(0, prompt));
          }
        } else if (kind == 2) {
          // Up to 6 decode steps over the whole batch; half the time the
          // newest entry finishes in the first one instead of growing,
          // released in admission order among the growth.
          std::int64_t finisher =
              device.size() > 1 && rng.uniform_int(0, 1) == 0
                  ? device.rbegin()->first
                  : -1;
          for (const auto& [id, slot] : device) {
            if (id != finisher) kv.begin_advance(slot);
          }
          for (std::int64_t k = rng.uniform_int(1, 6);
               k > 0 && kv.fits_blocks(kv.advance_growth_blocks()); --k) {
            if (finisher >= 0) {
              const std::int32_t slot = device.at(finisher);
              if (kv.advance_growth_blocks() > kv.free_blocks()) {
                kv.grow_advancing(kv.advance_blocks_admitted_before(slot));
              }
              release(finisher);
              finisher = -1;
            }
            kv.advance(1);
            ASSERT_TRUE(kv.audit());
          }
          for (const auto& [id, slot] : device) {
            if (id != finisher) kv.end_advance(slot);
          }
        } else if (kind == 3) {
          release(device.rbegin()->first);
        } else if (kind == 4 && policy == EvictionPolicy::kSwapToHost) {
          const auto oldest = device.begin();
          if (kv.try_swap_out_slot(oldest->second)) {
            host.insert(oldest->first);
            device.erase(oldest);
          }
        } else {
          const std::int64_t victim = kv.pick_eviction_victim();
          if (victim >= 0) release(victim);
        }
        if (!host.empty()) {
          const std::optional<std::int32_t> slot =
              kv.try_swap_in(*host.begin());
          if (slot) {
            device[*host.begin()] = *slot;
            host.erase(host.begin());
          }
        }
        // audit() recomputes per-block refcounts (>= 1 while mapped),
        // per-entry block math and pending counts, the advancing entries'
        // clock phases, the cached set, and walks the admit-order list.
        ASSERT_TRUE(kv.audit())
            << "seed " << seed << " policy " << eviction_policy_name(policy)
            << " op " << op;
        ASSERT_EQ(kv.inspect().resident_entries,
                  static_cast<std::int64_t>(device.size()));
        ASSERT_EQ(kv.inspect().swapped_entries,
                  static_cast<std::int64_t>(host.size()));
        ASSERT_LE(kv.occupied_blocks(), kv.capacity_blocks());
      }
      // Tear down: no leaked blocks — everything still occupied must be a
      // reclaimable cached prefix block.
      for (const auto& [id, slot] : device) kv.release_slot(slot);
      for (std::int64_t id : host) kv.release_slot(kv.try_swap_in(id).value());
      EXPECT_EQ(kv.referenced_blocks(), 0);
      EXPECT_EQ(kv.occupied_blocks(), kv.cached_block_count());
      EXPECT_EQ(kv.inspect().host_used_blocks, 0);
      EXPECT_TRUE(kv.audit());
    }
  }
}

// --- Paged-vs-contiguous lockstep equivalence at block size 1 (satellite) ----

/// The pre-paging contiguous accounting, reimplemented verbatim: used_ is
/// an accumulated byte total, admissions/growth compare used_ + need
/// against capacity, swap moves byte totals.  At block_tokens = 1 the
/// paged manager must make the IDENTICAL decision on every operation.
class ContiguousReference {
 public:
  ContiguousReference(Bytes capacity, Bytes bytes_per_token,
                      Bytes host_capacity)
      : capacity_(capacity),
        bytes_per_token_(bytes_per_token),
        host_capacity_(host_capacity) {}

  bool try_admit(std::int64_t id, std::int64_t tokens) {
    const Bytes need = bytes_per_token_ * static_cast<double>(tokens);
    if (used_ + need > capacity_) return false;
    entries_[id] = tokens;
    used_ += need;
    return true;
  }
  bool try_grow(std::int64_t id, std::int64_t tokens) {
    const Bytes need = bytes_per_token_ * static_cast<double>(tokens);
    if (used_ + need > capacity_) return false;
    entries_[id] += tokens;
    used_ += need;
    return true;
  }
  void release(std::int64_t id) {
    used_ -= bytes_per_token_ * static_cast<double>(entries_.at(id));
    entries_.erase(id);
  }
  bool try_swap_out(std::int64_t id) {
    const Bytes bytes = bytes_per_token_ * static_cast<double>(entries_.at(id));
    if (host_used_ + bytes > host_capacity_) return false;
    host_entries_[id] = entries_.at(id);
    host_used_ += bytes;
    used_ -= bytes;
    entries_.erase(id);
    return true;
  }
  bool try_swap_in(std::int64_t id) {
    const Bytes bytes =
        bytes_per_token_ * static_cast<double>(host_entries_.at(id));
    if (used_ + bytes > capacity_) return false;
    entries_[id] = host_entries_.at(id);
    used_ += bytes;
    host_used_ -= bytes;
    host_entries_.erase(id);
    return true;
  }
  Bytes used() const { return used_; }
  std::int64_t tokens(std::int64_t id) const {
    const auto it = entries_.find(id);
    return it == entries_.end() ? 0 : it->second;
  }

 private:
  Bytes capacity_, bytes_per_token_, host_capacity_;
  Bytes used_ = 0, host_used_ = 0;
  std::map<std::int64_t, std::int64_t> entries_, host_entries_;
};

TEST(PagedContiguousLockstepTest, BlockSizeOneMatchesContiguousDecisions) {
  for (std::uint64_t seed : {5ull, 23ull, 99ull}) {
    for (EvictionPolicy policy :
         {EvictionPolicy::kPreemptNewest, EvictionPolicy::kSwapToHost,
          EvictionPolicy::kPriorityVictim}) {
      KvCacheManager kv = paged(300.0, /*block_tokens=*/1,
                                /*prefix_cache=*/false, policy,
                                /*host_capacity=*/120.0);
      ContiguousReference reference(300.0, 1.0, 120.0);
      Rng rng(seed);
      std::map<std::int64_t, std::int32_t> device;  // id -> slot
      std::set<std::int64_t> host;
      for (std::int64_t op = 0; op < 500; ++op) {
        const std::int64_t kind = rng.uniform_int(0, 4);
        if (kind == 0 || device.empty()) {
          const std::int64_t tokens = rng.uniform_int(1, 60);
          const std::optional<std::int32_t> slot = kv.try_admit(op, tokens);
          ASSERT_EQ(slot.has_value(), reference.try_admit(op, tokens))
              << "op " << op;
          if (slot) device[op] = *slot;
        } else if (kind == 1) {
          // A decode run of `tokens` advances, committed when its growth
          // fits the free blocks, as the reference grows all or nothing.
          const auto [id, slot] = *device.begin();
          const std::int64_t tokens = rng.uniform_int(1, 8);
          kv.begin_advance(slot);
          const bool paged_ok =
              kv.growth_blocks_over(tokens) <= kv.free_blocks();
          if (paged_ok) kv.advance(tokens);
          kv.end_advance(slot);
          ASSERT_EQ(paged_ok, reference.try_grow(id, tokens));
        } else if (kind == 2) {
          const auto newest = std::prev(device.end());
          kv.release_slot(newest->second);
          reference.release(newest->first);
          device.erase(newest);
        } else if (kind == 3) {
          const auto oldest = device.begin();
          const bool paged_ok = kv.try_swap_out_slot(oldest->second);
          ASSERT_EQ(paged_ok, reference.try_swap_out(oldest->first));
          if (paged_ok) {
            host.insert(oldest->first);
            device.erase(oldest);
          }
        } else if (!host.empty()) {
          const std::int64_t id = *host.begin();
          const std::optional<std::int32_t> slot = kv.try_swap_in(id);
          ASSERT_EQ(slot.has_value(), reference.try_swap_in(id));
          if (slot) {
            host.erase(id);
            device[id] = *slot;
          }
        }
        // One token is one byte here.
        ASSERT_DOUBLE_EQ(static_cast<double>(kv.referenced_blocks()),
                         reference.used())
            << "op " << op;
        for (const auto& [id, slot] : device) {
          ASSERT_EQ(kv.inspect(id).tokens, reference.tokens(id));
        }
        ASSERT_TRUE(kv.audit());
      }
    }
  }
}

// --- Scheduler integration: prefix hits skip prefill work --------------------

TEST(PagedSchedulerTest, PrefixHitsSkipPrefillAndStartMidSequence) {
  KvCacheManager kv = paged(1e6, /*block_tokens=*/16, /*prefix_cache=*/true,
                            EvictionPolicy::kPreemptNewest);
  SchedulerConfig config;
  config.kv_block_tokens = 16;
  config.enable_prefix_cache = true;
  config.max_prefill_batch = 1;  // serialized admissions: every request
                                 // after the first sees a computed prefix
  ContinuousBatchScheduler scheduler(config, &kv);
  const std::int64_t prefix_len = 64;
  std::vector<Request> requests;
  for (std::int64_t id = 0; id < 6; ++id) {
    Request request;
    request.id = id;
    request.prompt_len = prefix_len + 32;
    request.output_len = 4;
    request.prefix_id = 0;
    request.prefix_len = prefix_len;
    requests.push_back(request);
    scheduler.enqueue(request);
  }
  std::int64_t prefill_tokens = 0;
  std::int64_t nonzero_first_chunks = 0;
  std::map<std::int64_t, std::int64_t> finish_count;
  StepRecord record;
  while (scheduler.next_step(&record)) {
    if (record.kind == StepRecord::Kind::kPrefill) {
      for (std::size_t i = 0; i < record.chunk_lens.size(); ++i) {
        prefill_tokens += record.chunk_lens[i];
        if (record.prev_lens[i] == prefix_len) ++nonzero_first_chunks;
      }
    }
    for (std::int64_t id : record.finished_ids) ++finish_count[id];
    EXPECT_TRUE(kv.audit());
    EXPECT_TRUE(scheduler.aggregates_consistent());
  }
  for (const Request& request : requests) {
    EXPECT_EQ(finish_count[request.id], 1);
  }
  // Request 0 prefills all 96 tokens; the other five skip the 64-token
  // prefix and prefill only their 32-token turns, starting mid-sequence.
  EXPECT_EQ(prefill_tokens, 96 + 5 * 32);
  EXPECT_EQ(nonzero_first_chunks, 5);
  EXPECT_EQ(scheduler.counters().prefix_hit_tokens, 5 * prefix_len);
  EXPECT_GT(scheduler.counters().prefix_shared_blocks, 0);
}

TEST(PagedSchedulerTest, GrowthBeforeAFinisherReclaimsInAdmissionOrder) {
  // A 4-block budget, 4-token blocks.  A finished prefix request leaves 2
  // cached prefix blocks; decoders A and F hold 1 block each, so no block
  // is free.  On the next decode step A starts its second block and F
  // finishes.  A decode step grows and releases in admission order: when
  // A was admitted first its grow reclaims a cached block before F's
  // release frees one; when F was admitted first A takes F's freed block.
  for (const bool grower_first : {true, false}) {
    SCOPED_TRACE(grower_first ? "grower admitted first"
                              : "finisher admitted first");
    KvCacheManager kv = paged(/*capacity=*/16, /*block_tokens=*/4,
                              /*prefix_cache=*/true,
                              EvictionPolicy::kPreemptNewest);
    SchedulerConfig config;
    config.kv_block_tokens = 4;
    config.enable_prefix_cache = true;
    ContinuousBatchScheduler scheduler(config, &kv);
    Request prefix;
    prefix.id = 0;
    prefix.prompt_len = 9;
    prefix.output_len = 1;
    prefix.prefix_id = 0;
    prefix.prefix_len = 8;
    scheduler.enqueue(prefix);
    StepRecord record;
    ASSERT_TRUE(scheduler.next_step(&record));  // prefills and finishes
    ASSERT_EQ(kv.cached_block_count(), 2);
    Request grower;  // 3 + 1 tokens: its next token starts a block
    grower.id = 1;
    grower.prompt_len = 3;
    grower.output_len = 20;
    Request finisher;  // its first decode step emits its last token
    finisher.id = 2;
    finisher.prompt_len = 3;
    finisher.output_len = 2;
    scheduler.enqueue(grower_first ? grower : finisher);
    scheduler.enqueue(grower_first ? finisher : grower);
    ASSERT_TRUE(scheduler.next_step(&record));  // prefills both
    ASSERT_EQ(record.kind, StepRecord::Kind::kPrefill);
    ASSERT_EQ(kv.free_blocks(), 0);
    ASSERT_TRUE(scheduler.next_step(&record));
    ASSERT_EQ(record.kind, StepRecord::Kind::kDecode);
    EXPECT_EQ(record.finished_ids, (std::vector<std::int64_t>{2}));
    EXPECT_EQ(kv.cached_blocks_reclaimed_total(), grower_first ? 1 : 0);
    EXPECT_EQ(kv.cached_block_count(), grower_first ? 1 : 2);
    EXPECT_EQ(kv.inspect(1).blocks, 2);
    EXPECT_TRUE(kv.audit());
    EXPECT_TRUE(scheduler.aggregates_consistent());
  }
}

TEST(PagedSchedulerTest, BlockSixteenCachingOffServesSameTokens) {
  // Block granularity changes allocation timing, never the work served:
  // every request completes with the same generated-token total.
  RequestStreamConfig stream;
  stream.seed = 13;
  stream.num_requests = 80;
  stream.arrival_rate = 40.0;
  stream.prompt.kind = LengthDistribution::kUniform;
  stream.prompt.min_len = 64;
  stream.prompt.max_len = 320;
  stream.output.kind = LengthDistribution::kUniform;
  stream.output.min_len = 16;
  stream.output.max_len = 128;
  const auto requests = generate_requests(stream);
  ServingScenario contiguous = llama7b_pressured_scenario(
      1, ir::DType::kInt4, EvictionPolicy::kPreemptNewest, 0,
      /*kv_budget_tokens=*/2000);
  ServingScenario blocked = contiguous;
  blocked.scheduler.kv_block_tokens = 16;
  const ServingMetrics a = run_serving(contiguous, requests);
  const ServingMetrics b = run_serving(blocked, requests);
  EXPECT_EQ(a.completed, 80);
  EXPECT_EQ(b.completed, 80);
  EXPECT_EQ(a.generated_tokens, b.generated_tokens);
  EXPECT_DOUBLE_EQ(a.kv_internal_fragmentation, 0.0);
  EXPECT_GT(b.kv_internal_fragmentation, 0.0);
}

// --- Request generation: the fourth decoupled rng stream ---------------------

TEST(PrefixStreamTest, PrefixAssignmentDecoupledFromOtherStreams) {
  RequestStreamConfig base = zipf_chat_stream(11, 400, 20.0,
                                              /*priority_classes=*/3);
  base.num_tenants = 2;
  RequestStreamConfig prefixed = base;
  prefixed.prefix_pool_size = 4;
  prefixed.prefix_len_tokens = 100;
  const auto plain = generate_requests(base);
  const auto tagged = generate_requests(prefixed);
  ASSERT_EQ(plain.size(), tagged.size());
  std::set<std::int64_t> seen;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].arrival_time, tagged[i].arrival_time);
    EXPECT_EQ(plain[i].prompt_len + 100, tagged[i].prompt_len);
    EXPECT_EQ(plain[i].output_len, tagged[i].output_len);
    EXPECT_EQ(plain[i].priority, tagged[i].priority);
    EXPECT_EQ(plain[i].tenant_id, tagged[i].tenant_id);
    EXPECT_EQ(plain[i].prefix_id, -1);
    EXPECT_EQ(plain[i].prefix_len, 0);
    EXPECT_GE(tagged[i].prefix_id, 0);
    EXPECT_LT(tagged[i].prefix_id, 4);
    EXPECT_EQ(tagged[i].prefix_len, 100);
    seen.insert(tagged[i].prefix_id);
  }
  EXPECT_EQ(seen.size(), 4u);  // all pool members drawn over 400 requests

  RequestStreamConfig bad = prefixed;
  bad.prefix_len_tokens = 0;  // pool without a length
  EXPECT_THROW(generate_requests(bad), ConfigError);
  bad.prefix_len_tokens = -5;
  EXPECT_THROW(generate_requests(bad), ConfigError);
  bad.prefix_len_tokens = 100;
  bad.prefix_pool_size = -1;
  EXPECT_THROW(generate_requests(bad), ConfigError);
}

// --- End-to-end acceptance: the canonical chatbot study ----------------------

TEST(PrefixCacheEndToEndTest, ChatbotHitRateAboveHalfAndGoodputWin) {
  const auto requests = generate_requests(
      prefix_chatbot_stream(/*seed=*/42, /*num_requests=*/200,
                            /*arrival_rate=*/30.0));
  const ServingMetrics off = run_serving(
      prefix_cache_scenario(ir::DType::kInt4, /*enable_prefix_cache=*/false),
      requests);
  const ServingMetrics on = run_serving(
      prefix_cache_scenario(ir::DType::kInt4, /*enable_prefix_cache=*/true),
      requests);
  EXPECT_EQ(off.completed, 200);
  EXPECT_EQ(on.completed, 200);
  EXPECT_EQ(off.generated_tokens, on.generated_tokens);
  // The acceptance bar: most prefix tokens served from cache, strictly
  // higher goodput than the caching-off deployment on identical traffic.
  EXPECT_GT(on.prefix_hit_rate, 0.5);
  EXPECT_GT(on.goodput_tokens_per_second, off.goodput_tokens_per_second);
  EXPECT_GT(on.counters.prefix_shared_blocks, 0);
  EXPECT_GT(on.counters.prefix_cow_blocks, 0);  // 1000 % 16 != 0: tail CoW
  EXPECT_DOUBLE_EQ(off.prefix_hit_rate, 0.0);
  EXPECT_LE(on.ttft.p50, off.ttft.p50);  // skipped prefill shows up in TTFT
  // Determinism: the identical run reproduces bit for bit.
  const ServingMetrics again = run_serving(
      prefix_cache_scenario(ir::DType::kInt4, /*enable_prefix_cache=*/true),
      requests);
  EXPECT_EQ(on.total_steps, again.total_steps);
  EXPECT_DOUBLE_EQ(on.goodput_tokens_per_second,
                   again.goodput_tokens_per_second);
  EXPECT_DOUBLE_EQ(on.prefix_hit_rate, again.prefix_hit_rate);
  EXPECT_DOUBLE_EQ(on.kv_internal_fragmentation,
                   again.kv_internal_fragmentation);
}

}  // namespace
}  // namespace cimtpu::serving
