#pragma once
// Block-granular (paged) KV-cache allocator with ref-counted prefix
// sharing, against a chip's memory capacity.
//
// Under continuous batching the KV cache — not compute — usually caps how
// many requests can decode concurrently: each resident sequence pins
// 2 * kv_len * d_model * dtype_bytes per layer (models::kv_cache_bytes_
// per_layer).  Real engines do not reserve that footprint contiguously:
// vLLM's PagedAttention (Kwon et al., SOSP'23) carves the budget into
// fixed-size token BLOCKS so sequences grow a block at a time with no
// external fragmentation, and SGLang's RadixAttention shares the blocks
// of a common prompt prefix across requests.  This manager models both:
//
//   * PAGING — every mapping is ceil(tokens / block_tokens) blocks; the
//     capacity is an integer number of blocks; growth allocates a new
//     block only when a sequence crosses a block boundary.  With
//     block_tokens = 1 the accounting reduces exactly to the historical
//     contiguous per-token model (the compatibility contract the golden
//     pins run under).
//   * REF-COUNTED PREFIX CACHING (opt-in) — a prefix index keyed on
//     (prefix id, block index) maps the FULL blocks of a shared prompt
//     prefix to one physical block; requests with the same prefix map the
//     same blocks (refcount++) and skip prefilling the covered tokens.
//     Released prefix blocks stay CACHED (refcount 0, still occupying
//     capacity, still hittable) until allocation pressure reclaims them
//     in LRU order.  A shared partial TAIL block (prefix_len not a block
//     multiple) is served copy-on-write: the prefix tokens are reused but
//     the divergence point is inside the block, so the sharer gets a
//     private copy.  The copy is made at admission — divergence is
//     certain (every request appends at least one token past the prefix)
//     — which is observationally identical to copying lazily at the first
//     divergent write.
//
// The manager gates admission (the scheduler reserves a request's prompt
// plus its first token, and decode advances grow the rest — see "Decode
// advance" below),
// implements the eviction side of every preemption policy (recompute
// victims drop their blocks outright, swap victims move them to a modeled
// host pool and restore them later over PCIe), and threads an admit-order
// list through its dense entry slots, so the newest or oldest resident is
// one link away.  It is pure bookkeeping and deterministic.  Once its
// arrays have reached their peak sizes (entry slots, the shared-block slab
// and a recycled slot's `shared` capacity), admission, prefill notes,
// decode advances and release allocate nothing, with two exceptions: a
// swap-out allocates a host_entries_ hash node (freed at swap-in or
// invalidation), and admitting a prefix whose chain was erased (its last
// block reclaimed and no donor left) re-creates the chain, a hash node
// plus its block vector.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/math_util.h"
#include "common/units.h"
#include "models/transformer.h"

namespace cimtpu::serving {

class MetricsRegistry;

/// What to do when a resident request cannot grow its KV cache.
enum class EvictionPolicy {
  kPreemptNewest,   ///< preempt the most recently admitted request
                    ///< (vLLM's recompute policy: its KV is dropped and the
                    ///< request re-queues from scratch)
  kSwapToHost,      ///< newest victim, but its KV blocks cross PCIe into a
                    ///< modeled host pool and are restored on re-admission —
                    ///< prompt tokens are never recomputed
  kPriorityVictim,  ///< evict the lowest-priority resident request,
                    ///< breaking ties by largest KV footprint (recompute).
                    ///< The oldest resident is exempt — a forward-progress
                    ///< guarantee, else the most-progressed low-priority
                    ///< sequence is reset every pressure cycle and starves
};

std::string eviction_policy_name(EvictionPolicy policy);

class KvCacheManager {
 public:
  /// `capacity` is the device byte budget available for KV blocks; it is
  /// floored to whole blocks of `block_tokens * bytes_per_token` bytes.
  /// `bytes_per_token` is the whole-model footprint of one cached token.
  /// `host_capacity` bounds the kSwapToHost pool; swap-outs that would
  /// overflow it fail and the caller falls back to recompute.
  /// `enable_prefix_cache` turns on the prefix index (off by default: the
  /// historical behaviour, and the mode the golden pins freeze).
  KvCacheManager(Bytes capacity, Bytes bytes_per_token,
                 EvictionPolicy policy = EvictionPolicy::kPreemptNewest,
                 Bytes host_capacity = 1024 * GiB,
                 std::int64_t block_tokens = 1,
                 bool enable_prefix_cache = false);

  /// Whole-model KV byte budget for a `chips`-way pipeline over chips with
  /// `chip_hbm_capacity` of HBM each.  Sized so the BOTTLENECK stage
  /// (ceil(layers/chips) layers) fits its weights plus its layer share of
  /// every admitted token in one chip's HBM; for even layer splits this
  /// reduces to chips * HBM - weights.
  static Bytes hbm_kv_budget(const models::TransformerConfig& model,
                             Bytes chip_hbm_capacity, int chips);

  /// Whole-model KV bytes pinned per cached token.
  static Bytes token_bytes(const models::TransformerConfig& model);

  /// What an admission's prefix lookup found (all zero when the cache is
  /// disabled or the request carries no prefix tag).
  struct AdmitOutcome {
    std::int64_t lookup_tokens = 0;  ///< prefix tokens eligible for reuse
    std::int64_t prefix_hit_tokens = 0;  ///< leading prompt tokens whose KV
                                         ///< was reused (prefill starts here)
    std::int64_t shared_blocks = 0;  ///< mappings served by refcount++ on an
                                     ///< existing block (blocks saved)
    std::int64_t cow_blocks = 0;     ///< private copies of a shared partial
                                     ///< tail block (copy-on-write)
  };

  /// Reserves `tokens` worth of KV blocks for a new request and returns
  /// its entry's slot (see "Dense slot handles").  Returns nullopt (and
  /// mutates nothing) when it does not fit even after reclaiming cached
  /// prefix blocks; the caller keeps the request queued.  A probe that
  /// cannot fit even if every full prefix block hit and every cached
  /// block were reclaimed is rejected in O(1), before the prefix lookup.
  /// `priority` feeds kPriorityVictim selection (larger = more important).
  /// With the prefix cache enabled and `prefix_id >= 0`, the first
  /// `prefix_len` tokens of the `prompt_len`-token prompt are looked up in
  /// the prefix index: hit blocks are mapped by reference instead of
  /// allocated, and `outcome->prefix_hit_tokens` tells the caller how many
  /// leading prompt tokens need no prefill (always capped at
  /// prompt_len - 1 so the final prompt token is recomputed for logits).
  /// Missed full prefix blocks are registered so later requests can share
  /// them once this request's prefill has computed their contents.
  std::optional<std::int32_t> try_admit(
      std::int64_t request_id, std::int64_t tokens, std::int64_t priority = 0,
      std::int64_t prefix_id = -1, std::int64_t prefix_len = 0,
      std::int64_t prompt_len = 0, AdmitOutcome* outcome = nullptr);

  /// Frees the device blocks of the entry in `slot` (finished or
  /// preempted-for-recompute) and recycles the slot.  Shared prefix blocks
  /// lose one reference; fully released computed prefix blocks stay
  /// cached for future hits.
  void release_slot(std::int32_t slot);

  /// Moves the blocks of the entry in `slot` device -> host pool and
  /// recycles the slot.  Returns false (and moves nothing) when the host
  /// pool cannot hold them.  Shared prefix blocks are privatized on the
  /// way out (the host copy is whole).
  bool try_swap_out_slot(std::int32_t slot);

  /// Moves a swapped request's blocks host -> device (as private blocks —
  /// its KV returns over PCIe, not through the prefix index) and returns
  /// its new slot.  Returns nullopt when the device budget cannot hold
  /// them; the request stays swapped.  On success the request counts as
  /// the newest admission.
  std::optional<std::int32_t> try_swap_in(std::int64_t request_id);

  /// Tells the manager how many leading prompt tokens of the entry in
  /// `slot` have been prefilled, so prefix blocks it registered become
  /// hittable once their contents exist.  O(1) once every block it
  /// registered is computed (always, with the prefix cache disabled).
  void note_prefilled_slot(std::int32_t slot, std::int64_t computed_tokens);

  // --- Fault injection / recovery (serving/fault.h) --------------------------

  /// Drops every device block of the entry in `slot` (exact release_slot
  /// accounting) as a FAULT, not a lifecycle release: the blocks' contents
  /// are lost, and the drop counts in the `kv.blocks_invalidated_total`
  /// counter.  Returns the number of blocks invalidated.
  std::int64_t invalidate_slot(std::int32_t slot);
  /// Drops every block `request_id` holds: its device blocks
  /// (invalidate_slot) when resident, its host-pool blocks when swapped
  /// out.  Returns the number of blocks invalidated; 0 when the request
  /// holds nothing.
  std::int64_t invalidate_blocks(std::int64_t request_id);

  /// Re-materializes a RESIDENT request's device blocks from a host
  /// shadow copy after a kv-loss fault.  Models a write-through backup:
  /// succeeds when the host pool could hold the entry's blocks alongside
  /// the current swap occupancy; the device mapping is unchanged (lost
  /// blocks are re-filled in place) and the caller charges the re-fetch
  /// PCIe traffic (entry blocks * block_bytes).  Returns false — and the
  /// caller falls back to recompute — when the shadow does not fit or
  /// the request is not resident.  Counts in `kv.blocks_restored_total`.
  bool restore_from_host(std::int64_t request_id);

  /// Reclaims EVERY cached (refcount-0) prefix block — a device failure
  /// wipes their contents, so they must stop being hittable.  Returns
  /// the number of blocks dropped (counted as invalidated, not as
  /// pressure reclaims).
  std::int64_t drop_cached_blocks();

  /// Graceful degradation: while paused, admissions neither hit nor
  /// register prefix blocks (existing shared mappings are untouched).
  void set_prefix_admission_paused(bool paused) {
    prefix_admission_paused_ = paused;
  }

  // --- Dense slot handles ----------------------------------------------------
  // Entries live in a dense slot array with a free list.  try_admit and
  // try_swap_in return the entry's slot, which is stable until the entry
  // leaves the device (release / swap-out / invalidate), then recycled.
  // The scheduler keeps that slot per resident sequence and passes it to
  // every per-sequence call, so no call on the step loop resolves a
  // request id.  Only fault recovery (invalidate_blocks,
  // restore_from_host) and the inspect() hook look a resident id up; they
  // scan the slot array, which holds at most the peak residency.  Swapped
  // entries live off the device, in a host map keyed by id.

  /// Slot of a resident request; -1 when it is not resident.
  std::int32_t find_slot(std::int64_t request_id) const;

  /// Chooses the request to preempt under the configured policy.  Returns
  /// -1 when nothing is resident.  The newest resident (kPreemptNewest,
  /// kSwapToHost) and the oldest (the kPriorityVictim exemption) are read
  /// off the admit-order list; kPriorityVictim's choice scans the slot
  /// array (bounded by max batch).  The caller must release/swap the
  /// victim and re-queue it.
  std::int64_t pick_eviction_victim() const;

  // --- Decode advance (hot path) ---------------------------------------------
  // A decode step grows every decoder that still grows by one token.  An
  // ADVANCING entry (begin_advance .. end_advance) stores its token count
  // as an offset from the manager's advance clock, so one advance moves
  // them all in O(1): mapped tokens rise by the advancing count, and only
  // entries whose next token starts a block allocate.  Those share a
  // PHASE — the advance clock modulo block_tokens at which their token
  // count is a block multiple — so the next advance's block count is one
  // counter read (at block size 1 every advancing entry allocates).
  // Global accounting (occupied / referenced / allocated blocks, mapped
  // tokens, internal_fragmentation) is exact after every advance; an
  // entry's own token and block counts are settled from the offset
  // wherever they are read (release, swap-out, eviction choice, fault
  // invalidation, host restore, audit).
  //
  // Blocks an advance allocates take free (never cached) blocks first and
  // reclaim cached prefix blocks, LRU order, once those run out — the same
  // order as growing the entries one token each, in admission order.  When
  // entries leave in the same step (the scheduler releases finishers in
  // admission order), the growth of entries admitted before each leaver is
  // allocated first (advance_blocks_admitted_before + grow_advancing), so
  // blocks a release frees or caches reach exactly the grows that follow
  // it.  serving_paged_kv_test's PrefixCacheChurnTest checks this against
  // a per-entry brute-force reference.

  /// Starts advancing `slot` by one token per advance.
  void begin_advance(std::int32_t slot);
  /// Stops advancing `slot`, settling its token and block counts.
  void end_advance(std::int32_t slot);
  /// Advances since construction: the one decode clock the scheduler
  /// measures each decoder's progress from.
  std::int64_t advance_clock() const { return advance_clock_; }
  std::int64_t advancing_count() const { return advancing_count_; }
  /// Blocks the next advance allocates (advancing entries whose token
  /// count is a block multiple).
  std::int64_t advance_growth_blocks() const {
    return phase_count_[static_cast<std::size_t>(clock_phase_)];
  }
  /// Blocks the next `advances` advances allocate in total.
  std::int64_t growth_blocks_over(std::int64_t advances) const;
  /// Of the next advance's growth blocks, those owed to entries admitted
  /// before `slot`.  Scans the entries: callers need it only on a step
  /// that both releases an entry and must reclaim.
  std::int64_t advance_blocks_admitted_before(std::int32_t slot) const;
  /// Allocates `blocks` of the next advance's growth blocks now (free
  /// blocks first, then cached ones reclaimed).  Returns blocks reclaimed.
  std::int64_t grow_advancing(std::int64_t blocks);
  /// Commits `advances` advances: every advancing entry gains `advances`
  /// tokens and the growth blocks grow_advancing has not yet allocated are
  /// allocated.  A multi-step advance must fit the free blocks outright
  /// (CHECKed): each of its steps grows without reclaiming.  Returns
  /// blocks reclaimed.
  std::int64_t advance(std::int64_t advances);
  /// Adds internal_fragmentation() as it reads after each of the next
  /// `advances` advances to `sum`, one advance at a time — the per-step
  /// sampling a run of advances replays.
  double add_fragmentation_over(std::int64_t advances, double sum) const;

  /// Host-pool KV tokens of a swapped-out request; 0 when not swapped.
  std::int64_t swapped_tokens(std::int64_t request_id) const;

  // --- Block-level accounting ------------------------------------------------
  std::int64_t block_tokens() const { return block_tokens_; }
  bool prefix_cache_enabled() const { return enable_prefix_cache_; }
  std::int64_t blocks_for_tokens(std::int64_t tokens) const {
    return ceil_div(tokens, block_tokens_);
  }
  std::int64_t capacity_blocks() const { return capacity_blocks_; }
  /// Physical blocks in use, INCLUDING cached (refcount-0) prefix blocks.
  std::int64_t occupied_blocks() const {
    return private_used_ + live_shared_blocks_;
  }
  /// Blocks never allocated or cached: what a grow takes before it must
  /// reclaim a cached prefix block.
  std::int64_t free_blocks() const {
    return capacity_blocks_ - occupied_blocks();
  }
  /// Cached prefix blocks: refcount 0, reclaimable on demand.
  std::int64_t cached_block_count() const { return cached_blocks_; }
  /// Blocks some resident request currently references.
  std::int64_t referenced_blocks() const {
    return occupied_blocks() - cached_block_count();
  }
  /// Could `blocks` more blocks be allocated right now (reclaiming cached
  /// prefix blocks if necessary)?
  bool fits_blocks(std::int64_t blocks) const {
    return referenced_blocks() + blocks <= capacity_blocks_;
  }
  /// Last-block waste across resident mappings: 1 - mapped_tokens /
  /// mapped_block_tokens, in [0, 1).  Always 0 at block_tokens = 1.
  double internal_fragmentation() const {
    return fragmentation(mapped_tokens_, entry_block_tokens_);
  }

  /// Cumulative device blocks allocated over the manager's lifetime
  /// (admission reservations, decode growth, swap-ins; prefix-shared
  /// mappings reuse a block and do not count).  Monotone — per-step churn
  /// is the delta between two reads.
  std::int64_t blocks_allocated_total() const {
    return blocks_allocated_total_;
  }
  /// Cumulative cached (refcount-0) prefix blocks reclaimed under
  /// allocation pressure.  Monotone.
  std::int64_t cached_blocks_reclaimed_total() const {
    return cached_blocks_reclaimed_total_;
  }

  /// Publishes capacity/occupancy/churn gauges and counters into
  /// `registry` under "kv.*" names (serving/obs_registry.h).
  void publish(MetricsRegistry* registry) const;

  Bytes capacity() const { return capacity_; }
  Bytes bytes_per_token() const { return bytes_per_token_; }
  EvictionPolicy policy() const { return policy_; }

  // --- Test and audit hooks --------------------------------------------------
  // Nothing on the serving path calls these; they are the only observables
  // of per-request mappings and of the host pool and block slab sizes.

  /// What the manager holds for one request (all zero/false unless it is
  /// resident or swapped out) and in total.
  struct Inspection {
    bool resident = false;
    bool swapped = false;
    std::int64_t tokens = 0;         ///< resident KV tokens, settled
    std::int64_t blocks = 0;         ///< resident device blocks mapped
    std::int64_t shared_blocks = 0;  ///< of those, shared prefix mappings
    std::int64_t resident_entries = 0;
    std::int64_t swapped_entries = 0;
    std::int64_t host_used_blocks = 0;
    /// Shared-block ids handed out and not yet recycled (live plus free):
    /// freed ids are reused, so under churn this stays bounded by the
    /// peak number of live shared blocks.
    std::int64_t shared_block_ids = 0;
  };
  /// O(peak residency) (the id lookup scans the slot array).
  Inspection inspect(std::int64_t request_id = -1) const;

  /// Accounting invariant for tests: the free list and the live entries
  /// partition the slot array, and no two live entries share an id; the
  /// admit-order list links exactly the live entries, symmetrically, in
  /// strictly increasing admit_seq; per-entry block counts match their
  /// token counts, and each entry's pending count matches its uncomputed
  /// registered blocks (the tail of its shared list, each referenced by it
  /// alone); live shared blocks and free ids partition the block slab;
  /// refcounts match a full recount (and are >= 1 for every mapped shared
  /// block); every prefix-chain entry and its block point at each other;
  /// the LRU list is ordered by lru_seq and holds exactly the computed
  /// refcount-0 blocks; tail donors and their chains point at each other;
  /// and device/host occupancy never exceeds capacity.
  bool audit() const;

 private:
  struct Entry {
    std::int64_t id = -1;         ///< owning request (slot back-reference)
    /// KV tokens mapped (reserved); while `advancing`, tokens minus the
    /// advance clock (read through entry_tokens).
    std::int64_t tokens = 0;
    /// Blocks owned by this entry alone; stale while `advancing` (read
    /// through entry_private_blocks).
    std::int64_t private_blocks = 0;
    bool advancing = false;
    bool tail_donor = false;  ///< its chain's partial-tail donor
    std::int64_t phase = 0;  ///< advancing: clock phase at which it grows
    std::int64_t admit_seq = 0;   ///< admission order for eviction policy
    std::int32_t older = -1;  ///< admit-order list: previous slot, -1 = head
    std::int32_t newer = -1;  ///< admit-order list: next slot, -1 = tail
    std::int64_t priority = 0;    ///< larger = more important
    std::int64_t computed_tokens = 0;  ///< leading prompt tokens prefilled
    std::int64_t prefix_id = -1;
    std::int64_t prefix_len = 0;
    /// Blocks this entry registered whose prefill has not passed them:
    /// the last `pending_blocks` of `shared`, in block order.
    std::int64_t pending_blocks = 0;
    /// Leading shared physical block ids: the hits, then the blocks this
    /// entry registered.
    std::vector<std::int64_t> shared;
  };

  /// One slot of the shared-block slab; the block id is the slot index.
  /// A free slot has prefix_id -1 (live blocks always carry a prefix).
  /// An uncomputed block is referenced by its registrant alone.
  struct SharedBlock {
    std::int64_t ref = 0;
    std::int64_t prefix_id = -1;
    std::int64_t block_index = 0;  ///< k: covers tokens [k*B, (k+1)*B)
    bool computed = false;         ///< contents exist (hittable)
    std::int64_t lru_seq = -1;     ///< reclaim order while cached (ref 0)
    std::int64_t lru_prev = -1;    ///< intrusive LRU links while cached
    std::int64_t lru_next = -1;
  };

  /// Everything the prefix cache knows about one prefix id: the physical
  /// block holding each full prefix block k (-1 = absent) and the resident
  /// entry that volunteers its partial tail block for copy-on-write.  A
  /// chain with no live block and no donor is erased.
  struct PrefixChain {
    std::vector<std::int64_t> blocks;
    std::int64_t live = 0;         ///< entries of `blocks` that are >= 0
    std::int32_t tail_donor = -1;  ///< donor entry's slot, -1 = none
  };

  /// Victim preference under kPriorityVictim: lowest priority first, then
  /// largest KV footprint, then newest admission, then largest id — the
  /// exact order the historical full scan produced.  Victims are found by
  /// a linear scan over the (small, bounded-by-batch) resident set at
  /// selection time; keeping a sorted index current would cost two
  /// red-black-tree updates per decoded token.
  struct VictimKey {
    std::int64_t priority;
    std::int64_t tokens;
    std::int64_t admit_seq;
    std::int64_t id;
    bool operator<(const VictimKey& other) const {
      if (priority != other.priority) return priority < other.priority;
      if (tokens != other.tokens) return tokens > other.tokens;
      if (admit_seq != other.admit_seq) return admit_seq > other.admit_seq;
      return id > other.id;
    }
  };

  static double fragmentation(std::int64_t mapped_tokens,
                              std::int64_t block_tokens_total) {
    return block_tokens_total == 0
               ? 0.0
               : 1.0 - static_cast<double>(mapped_tokens) /
                           static_cast<double>(block_tokens_total);
  }
  /// An entry's token count, settled from the advance clock.
  std::int64_t entry_tokens(const Entry& entry) const {
    return entry.advancing ? entry.tokens + advance_clock_ : entry.tokens;
  }
  std::int64_t entry_blocks(const Entry& entry) const {
    return blocks_for_tokens(entry_tokens(entry));
  }
  std::int64_t entry_private_blocks(const Entry& entry) const {
    return entry.advancing ? entry_blocks(entry) -
                                 static_cast<std::int64_t>(entry.shared.size())
                           : entry.private_blocks;
  }
  /// Allocates `blocks` growth blocks, reclaiming cached ones once the
  /// free ones run out; returns blocks reclaimed.  The advancing entries'
  /// own counts derive the entry side from the advance clock.
  std::int64_t allocate_growth(std::int64_t blocks);
  /// Takes a slot (recycled when one is free) for a new device entry of
  /// `request_id` with admit_seq `admit_seq` and links it as the newest
  /// admission.  The entry's other fields are defaults; a recycled slot
  /// keeps its `shared` capacity.
  std::int32_t acquire_slot(std::int64_t request_id, std::int64_t admit_seq);
  /// Unlinks the entry in `slot` from the admit-order list and recycles
  /// the slot.
  void recycle_slot(std::int32_t slot);
  /// Drops the device side of the entry in `slot`: ends its advance,
  /// unreferences its shared blocks, takes its blocks and tokens off the
  /// totals and gives up its tail donation.  Returns its block count.
  std::int64_t leave_device(std::int32_t slot);
  /// Reclaims `blocks` cached prefix blocks, oldest first.  The caller
  /// must have checked fits_blocks; reclaimed blocks leave the index.
  void reclaim_cached(std::int64_t blocks);
  /// Drops one reference on a shared block; a computed block that reaches
  /// refcount 0 becomes cached, an uncomputed one is destroyed.
  void unref_shared(std::int64_t block_id);
  /// Takes a slab id (recycled when one is free) for block k of `chain`,
  /// referenced once by its registrant and not yet computed; returns the
  /// id.
  std::int64_t new_shared_block(std::int64_t prefix_id, PrefixChain* chain,
                                std::int64_t k);
  /// Removes a refcount-0 block from its chain and recycles its id.
  void free_shared_block(std::int64_t block_id);
  /// Appends a block that just reached refcount 0 to the LRU tail.
  void lru_append(std::int64_t block_id);
  /// Unlinks a cached block from the LRU list (a hit or a reclaim).
  void lru_unlink(std::int64_t block_id);
  /// Clears `entry`'s tail-donor volunteering as it leaves the device.
  void drop_tail_donor(Entry* entry);
  /// Erases `chain` when it holds no block and no donor.
  void erase_chain_if_empty(
      std::unordered_map<std::int64_t, PrefixChain>::iterator chain);

  Bytes capacity_;
  Bytes bytes_per_token_;
  EvictionPolicy policy_;
  Bytes host_capacity_;
  std::int64_t block_tokens_;
  bool enable_prefix_cache_;
  bool prefix_admission_paused_ = false;
  Bytes block_bytes_;
  std::int64_t capacity_blocks_;
  std::int64_t host_capacity_blocks_;

  std::int64_t blocks_allocated_total_ = 0;         ///< lifetime counter
  std::int64_t cached_blocks_reclaimed_total_ = 0;  ///< lifetime counter
  std::int64_t blocks_invalidated_total_ = 0;       ///< fault drops
  std::int64_t blocks_restored_total_ = 0;          ///< host-shadow restores
  std::int64_t private_used_ = 0;      ///< device blocks owned privately
  std::int64_t host_used_blocks_ = 0;  ///< host-pool blocks
  std::int64_t mapped_tokens_ = 0;     ///< sum of resident entry tokens
  std::int64_t entry_block_tokens_ = 0;  ///< sum of resident blocks * B
  std::int64_t next_seq_ = 0;
  std::int64_t next_lru_seq_ = 0;

  // --- Decode advance -------------------------------------------------------
  std::int64_t advance_clock_ = 0;
  std::int64_t clock_phase_ = 0;      ///< advance_clock_ % block_tokens_
  std::int64_t advancing_count_ = 0;  ///< entries with `advancing` set
  std::vector<std::int64_t> phase_count_;  ///< advancing entries by phase
  /// Blocks of the next advance grow_advancing already allocated.
  std::int64_t advance_grown_ = 0;
  Entry& slot_entry(std::int32_t slot) {
    return entry_slots_[static_cast<std::size_t>(slot)];
  }
  const Entry& slot_entry(std::int32_t slot) const {
    return entry_slots_[static_cast<std::size_t>(slot)];
  }

  std::vector<Entry> entry_slots_;        ///< dense device entries (slot API)
  std::vector<std::int32_t> free_slots_;  ///< recycled entry_slots_ indices
  std::int32_t oldest_slot_ = -1;  ///< admit-order list head, -1 = empty
  std::int32_t newest_slot_ = -1;  ///< admit-order list tail
  std::unordered_map<std::int64_t, Entry> host_entries_;  ///< swapped out

  // --- Prefix-cache store ---------------------------------------------------
  // Flat.  An admission looks its prefix chain up once, plans over the
  // chain array in one pass and commits its references in another; a
  // release or hit touches each block in O(1).  Only a chain's edits probe
  // it: freeing a block (reclaim, or an uncomputed block's last release)
  // and a tail donor's leaving.
  std::vector<SharedBlock> block_slab_;       ///< shared blocks, by id
  std::vector<std::int64_t> free_block_ids_;  ///< recycled slab ids
  std::int64_t live_shared_blocks_ = 0;       ///< slab slots in use
  std::int64_t cached_blocks_ = 0;            ///< blocks on the LRU list
  std::int64_t lru_head_ = -1;  ///< oldest cached block (reclaimed first)
  std::int64_t lru_tail_ = -1;  ///< newest cached block
  std::unordered_map<std::int64_t, PrefixChain> prefix_chains_;  ///< by id
};

// --- Decode advance: inline, called once per decode step or quiet run -----

inline void KvCacheManager::begin_advance(std::int32_t slot) {
  Entry& entry = slot_entry(slot);
  CIMTPU_CHECK(!entry.advancing && advance_grown_ == 0);
  // The entry allocates on the advance that starts at a block multiple:
  // at clock c its count is tokens + (c - clock), so at c = clock - tokens
  // modulo the block size.  (Block size 1 skips the divisions.)
  entry.phase = block_tokens_ == 1
                    ? 0
                    : ((clock_phase_ - entry.tokens % block_tokens_) %
                           block_tokens_ +
                       block_tokens_) %
                          block_tokens_;
  entry.tokens -= advance_clock_;
  entry.advancing = true;
  ++phase_count_[static_cast<std::size_t>(entry.phase)];
  ++advancing_count_;
}

inline void KvCacheManager::end_advance(std::int32_t slot) {
  Entry& entry = slot_entry(slot);
  CIMTPU_CHECK(entry.advancing && advance_grown_ == 0);
  entry.private_blocks = entry_private_blocks(entry);
  entry.tokens += advance_clock_;
  entry.advancing = false;
  --phase_count_[static_cast<std::size_t>(entry.phase)];
  --advancing_count_;
}

inline std::int64_t KvCacheManager::allocate_growth(std::int64_t blocks) {
  if (blocks == 0) return 0;
  // One block per growing entry, hoisted: the free blocks go first, and
  // each block past them reclaims one cached block from the LRU head.
  CIMTPU_CHECK(blocks > 0 && fits_blocks(blocks));
  const std::int64_t reclaimed =
      std::max<std::int64_t>(0, blocks - free_blocks());
  if (reclaimed > 0) reclaim_cached(reclaimed);
  private_used_ += blocks;
  blocks_allocated_total_ += blocks;
  entry_block_tokens_ += blocks * block_tokens_;
  return reclaimed;
}

inline std::int64_t KvCacheManager::advance(std::int64_t advances) {
  std::int64_t blocks;
  if (advances == 1) {  // a decode step: no division on the hot path
    blocks = advance_growth_blocks() - advance_grown_;
    if (++clock_phase_ == block_tokens_) clock_phase_ = 0;
  } else {
    CIMTPU_CHECK(advances > 1 && advance_grown_ == 0);
    blocks = growth_blocks_over(advances);
    // A multi-step advance stands for `advances` single ones, so none of
    // them may reclaim: reclaims would interleave differently.
    CIMTPU_CHECK(blocks <= free_blocks());
    if (block_tokens_ > 1) {
      clock_phase_ = (clock_phase_ + advances) % block_tokens_;
    }
  }
  const std::int64_t reclaimed = allocate_growth(blocks);
  mapped_tokens_ += advancing_count_ * advances;
  advance_clock_ += advances;
  advance_grown_ = 0;
  return reclaimed;
}

inline std::int64_t KvCacheManager::growth_blocks_over(
    std::int64_t advances) const {
  CIMTPU_CHECK(advances >= 0);
  if (block_tokens_ == 1) return advances * advancing_count_;
  // Every advancing entry allocates once per block_tokens advances; the
  // partial cycle sums the phases the clock passes.
  std::int64_t blocks = advances / block_tokens_ * advancing_count_;
  std::int64_t phase = clock_phase_;
  for (std::int64_t i = advances % block_tokens_; i > 0; --i) {
    blocks += phase_count_[static_cast<std::size_t>(phase)];
    if (++phase == block_tokens_) phase = 0;
  }
  return blocks;
}

inline double KvCacheManager::add_fragmentation_over(std::int64_t advances,
                                                     double sum) const {
  // At block size 1 every mapping fills its blocks: each reading is 0.
  if (block_tokens_ == 1) return sum;
  std::int64_t mapped = mapped_tokens_;
  std::int64_t block_token_total = entry_block_tokens_;
  std::int64_t phase = clock_phase_;
  for (std::int64_t i = 0; i < advances; ++i) {
    mapped += advancing_count_;
    block_token_total +=
        phase_count_[static_cast<std::size_t>(phase)] * block_tokens_;
    if (++phase == block_tokens_) phase = 0;
    sum += fragmentation(mapped, block_token_total);
  }
  return sum;
}

}  // namespace cimtpu::serving
