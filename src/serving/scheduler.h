#pragma once
// Iteration-level (continuous-batching) scheduler, vLLM-style, with
// Sarathi-style chunked prefill and pluggable preemption.
//
// The engine runs a sequence of steps.  Each step is either
//   * a PREFILL step: prefilling sequences push prompt tokens through all
//     layers.  With chunking disabled a sequence prefills its whole prompt
//     in one step; with `prefill_chunk_tokens` set the step carries at most
//     that many prompt tokens in total, so long prompts stream through in
//     chunks interleaved with decode steps and TPOT stays bounded.  A
//     sequence whose prompt completes in a step emits its first token in
//     that step.  Or,
//   * a DECODE step: every fully-prefilled request advances by one token.
// Requests join the running batch the moment capacity frees up (KV pages
// and batch slots), rather than waiting for the whole batch to drain —
// that is the continuous-batching property.  WHICH waiting request joins
// next is delegated to a pluggable AdmissionPolicy
// (serving/admission_policy.h, selected by SchedulerConfig::admission):
// "fifo" by default — bit-identical to the pre-API scheduler — plus
// "priority" (aging, starvation-free) and "wfq" (per-tenant weighted fair
// queueing with optional token-rate caps).
//
// When decode-time KV growth outruns the device budget the scheduler
// preempts under the KvCacheManager's policy: recompute victims
// (kPreemptNewest, kPriorityVictim) drop their KV and re-queue from
// scratch; swap victims (kSwapToHost) move their pages to the host pool
// and resume decoding after re-admission without recomputing the prompt.
//
// KV is BLOCK-GRANULAR (kv_block_tokens-sized pages, kv_cache_manager.h):
// admission, growth, swap, and eviction all account in blocks, decode
// growth only allocates at block boundaries, and with
// `enable_prefix_cache` requests tagged with a shared prompt prefix map
// the cached prefix blocks by reference and START PREFILL MID-SEQUENCE —
// the first chunk's prev_len is the prefix-hit token count.
//
// Hot-path design: the scheduler maintains INCREMENTAL aggregates —
// resident decoder count, pending-growth BLOCK count, and a sorted
// bucketed-KV histogram over resident decoders — updated on every
// admit / prefill-completion / decode-advance / finish / preempt / swap
// transition, so planning a step never rescans all resident sequences.
// Each transition is written once (decoder_enter / decoder_leave /
// cross_bucket / retire), and a decode step advances every decoder in ONE
// compaction pass: at block size 1 with free room for every decoder's next
// block, growth takes the KV manager's bulk path (two-field entry updates,
// one commit per step); otherwise each decoder grows by a checked
// try_grow_slot.  Step costs come from the analytic simulator, memoized per
// (batch, bucketed-seqlen) shape in a flat open-addressed table
// (StepCostCache, step_cost_cache.h).  `cost_step` sums PER-SEQUENCE
// attention costs over each participant's actual (bucketed) KV length —
// decode participants arrive pre-grouped by bucket via the histogram, so
// costing a step is allocation-free.
//
// Quiet decode runs: most decode steps change nothing but token counts —
// same bucketed grouping as the step before, no arrival, finish,
// admission, swap, or KV pressure.  `quiet_decode_steps` says how many
// such steps lie ahead (the minimum over decoders of steps to finish and
// steps up to and including the next bucket crossing, capped by KV
// headroom), and `advance_quiet_decode` commits them in one O(decoders)
// pass, moving a decoder whose run ended on its crossing step to its next
// bucket: the scheduler and KV manager end bit-identical to stepping one
// at a time.  A run may stand over a queue: waiting or swapped work that
// cannot enter while it lasts (full batch, swapped front under the swap-in
// watermark, or a memoized head-of-line block) leaves every step quiet,
// since a run only shrinks free blocks.  Shedding (EDF) admission keeps
// such steps per-step.  A regrouping only starts the next run, so the
// serving engine chains runs back to back and replays only the per-step
// clock and energy sums for them (serving_sim.h).

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "serving/admission_policy.h"
#include "serving/kv_cache_manager.h"
#include "serving/metrics.h"
#include "serving/request_gen.h"
#include "serving/step_cost_cache.h"
#include "serving/trace.h"

namespace cimtpu::serving {

/// Scheduler knobs.
struct SchedulerConfig {
  int max_batch = 32;          ///< max concurrently resident requests
  int max_prefill_batch = 8;   ///< max prefill participants (and new
                               ///< admissions) per step
  std::int64_t seqlen_bucket = 128;  ///< cost-cache bucket granularity

  /// KV page size in tokens (KvCacheManager block granularity).  1 — the
  /// default — reproduces the historical contiguous per-token accounting
  /// bit for bit; larger blocks trade internal fragmentation for
  /// allocation granularity and enable meaningful prefix sharing.
  std::int64_t kv_block_tokens = 1;

  /// Ref-counted prefix caching over Request::prefix_id (see
  /// kv_cache_manager.h).  Off by default — the golden-pinned behaviour.
  bool enable_prefix_cache = false;

  /// 0 disables chunking (whole-prompt prefill steps).  Otherwise each
  /// prefill step carries at most this many prompt tokens in total and
  /// alternates with decode steps while both kinds of work exist.  Must be
  /// >= seqlen_bucket so every chunk advances its sequence's cost bucket.
  std::int64_t prefill_chunk_tokens = 0;

  /// Which waiting request joins the batch next: a registry-keyed
  /// AdmissionPolicy ("fifo" default — the pre-API behaviour — plus
  /// "priority" and "wfq"; see serving/admission_policy.h).
  AdmissionConfig admission;

  void validate() const;
};

/// What one engine step executed, as planned by the scheduler.  Shapes are
/// PER PARTICIPANT (parallel arrays in admission order) so the cost model
/// can charge each sequence's attention over its actual KV length rather
/// than a batch-mean representative.  Designed for reuse: the serving loop
/// keeps ONE record and the scheduler `clear()`s it each step, so the
/// vectors' capacity amortizes to zero allocations.
struct StepRecord {
  enum class Kind { kPrefill, kDecode };
  Kind kind = Kind::kDecode;
  std::int64_t batch = 0;  ///< participants in this step

  /// KV length each participant attends over this step: prompt tokens
  /// prefilled so far including this step's chunk (prefill), or prompt +
  /// generated tokens (decode).
  std::vector<std::int64_t> kv_lens;
  std::vector<std::int64_t> chunk_lens;  ///< prefill: new prompt tokens
  std::vector<std::int64_t> prev_lens;   ///< prefill: tokens already prefilled

  /// Decode only: participants grouped by bucketed KV length, ascending —
  /// a copy of the scheduler's incremental histogram, so cost_step never
  /// re-derives the grouping from kv_lens.  Empty for hand-built records
  /// (cost_step then groups from kv_lens itself).
  std::vector<std::pair<std::int64_t, std::int64_t>> decode_groups;

  std::vector<std::int64_t> first_token_ids;  ///< emitted their first token
  std::vector<std::int64_t> finished_ids;     ///< completed this step
  std::vector<std::int64_t> preempted_ids;    ///< evicted for recompute
  std::vector<std::int64_t> swapped_out_ids;  ///< KV moved to the host pool
  std::vector<std::int64_t> swapped_in_ids;   ///< KV restored from the host
  std::vector<std::int64_t> shed_ids;  ///< dropped by admission control
                                       ///< (EDF deadline shed): never
                                       ///< admitted, never complete
  Bytes swap_bytes = 0;  ///< PCIe traffic (out + in) charged to this step
  bool chunked = false;  ///< some participant's prompt was split

  /// Resets to an empty record, keeping vector capacity.
  void clear();

  /// Pre-reserves every participant vector to the scheduler's per-step
  /// bounds — at most `max_batch` decode participants (and finishes,
  /// preemptions, swaps, sheds) and `max_prefill_batch` prefill
  /// participants — so even the FIRST full batch stays off the heap.
  void reserve(int max_batch, int max_prefill_batch);
};

/// Per-sequence step cost: sums each participant's attention cost at its
/// own bucketed KV length.  Decode participants group by KV bucket (one
/// memoized decode_layer shape per group, accumulated in ascending bucket
/// order); prefill participants are costed as the telescoped difference
/// prefill(prev + chunk) - prefill(prev), so a chunked prompt's total
/// prefill cost is identical to the unchunked cost of the same prompt.
/// The same telescoping prices chunks that START mid-sequence: a
/// prefix-cache hit enters prefill with prev = hit tokens, so only the
/// uncached suffix is ever charged.
StepCost cost_step(StepCostCache& costs, const StepRecord& step);

/// The decode half of cost_step for a scheduler-built grouping: sums one
/// counted decode_layer lookup per (bucket, count) group, ascending, and
/// stores the result in the cache's last-grouping memo.  cost_step calls
/// it on a memo mismatch; the serving engine calls it to cost the grouping
/// a quiet decode run starts with.
StepCost cost_decode_groups(
    StepCostCache& costs,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& groups,
    std::int64_t batch);

/// The continuous-batching state machine.  Time-free: the serving loop owns
/// the clock and costs each StepRecord via `cost_step`.
class ContinuousBatchScheduler {
 public:
  ContinuousBatchScheduler(const SchedulerConfig& config,
                           KvCacheManager* kv_cache);

  /// Adds an arrived request to the waiting set (the admission policy
  /// owns its ordering).
  void enqueue(const Request& request);

  /// Adds a request whose PROMPT KV already exists on this replica — the
  /// disaggregated-serving decode side, where a dedicated prefill replica
  /// computed the prompt and streamed the KV blocks over (cluster.h).  The
  /// request waits in admission like any other, but on admission it maps
  /// its full prompt KV without prefilling (all prompt tokens accounted as
  /// prefix-skipped) and enters decode directly; its first LOCAL token is
  /// output token #2 (the prefill replica emitted #1).  Requires
  /// output_len >= 2.
  void enqueue_prefilled(const Request& request);

  /// Advances the policy-visible simulated clock (rate caps in
  /// WeightedFairAdmission).  The serving loop calls this before each
  /// next_step; direct drivers may never call it (the clock stays 0 and
  /// capped tenants live off their burst allowance).
  void set_time(Seconds now) { now_ = now; }

  /// True when nothing is waiting, resident, or swapped out.  The cheap
  /// vector checks run first: while anything is resident — the common case
  /// during serving — the virtual policy call is skipped entirely.
  bool idle() const {
    return resident_.empty() && swapped_.empty() && admission_->empty();
  }

  /// Plans and commits the next engine step into `record` (cleared first;
  /// pass the same record every step to reuse its vectors).  Admission
  /// happens here: swapped-out sequences are restored first (FIFO), then
  /// waiting requests are pulled into the batch while KV pages and batch
  /// slots allow.  Returns false when idle — including when admission
  /// control shed EVERY waiting request this call (a shedding policy can
  /// empty the engine; the sheds are reported in record->shed_ids, and no
  /// step ran).  For non-shedding policies a non-idle engine always steps.
  bool next_step(StepRecord* record);

  /// Convenience wrapper allocating a fresh record per step.
  std::optional<StepRecord> next_step();

  /// How many upcoming decode steps are QUIET: each carries today's
  /// decode_histogram() as its decode_groups, finishes no sequence, and
  /// emits no event.  That is the minimum over decoders of steps-to-finish
  /// and bucket - kv_len + 1 (the crossing step, which still attends
  /// inside the bucket, is the run's last for that decoder), capped (under
  /// growth-managing eviction policies) by free device blocks / decoders
  /// so every grow fits outright: each step of the run would take
  /// build_decode_step's bulk-growth branch, which keeps the head-of-line
  /// memo.  0 unless every resident is a decoder, no trace sink is
  /// attached, kv_block_tokens == 1, and any waiting or swapped work is
  /// locked out for the whole run under a non-shedding policy: the batch is
  /// full, the swapped front fails the swap-in watermark, or (nothing
  /// swapped) the head-of-line memo is set.  Free blocks only shrink and
  /// the decoder count stays fixed during a run, so each lock holds until
  /// it ends.
  /// Only valid while no request arrives meanwhile — the caller stops the
  /// run at its next enqueue (which clears the memo).
  std::int64_t quiet_decode_steps() const;

  /// Commits `steps` (<= quiet_decode_steps()) quiet decode steps in one
  /// pass: every decoder gains `steps` tokens and KV blocks, a decoder
  /// whose last step was its crossing step moves to its next bucket, and
  /// the scheduler, its counters, the histogram, and the KV manager end
  /// exactly as `steps` next_step calls would leave them.
  void advance_quiet_decode(std::int64_t steps);

  /// The bucketed-KV grouping the next decode step carries (its
  /// decode_groups), maintained incrementally.
  const std::vector<std::pair<std::int64_t, std::int64_t>>& decode_histogram()
      const {
    return decode_kv_histogram_;
  }

  /// Test-only audit: recomputes the incremental decoder aggregates
  /// (resident/growing counts, bucketed-KV histogram) from a full scan of
  /// the resident sequences and compares them to the tracked values.
  /// O(n log n) — call from invariant tests after every step, never from
  /// the hot path.
  bool aggregates_consistent() const;

  /// Attaches an event trace (serving/trace.h); nullptr detaches.  The
  /// scheduler emits admit / prefill-chunk / decode-enter / preempt /
  /// swap / shed transitions into it.  With no trace attached (the
  /// default) every emission site is a single null check — zero
  /// allocation, zero behavioural effect; the trace NEVER influences
  /// scheduling decisions.
  void set_trace_sink(ServingTrace* sink) { trace_ = sink; }

  // --- Fault injection / recovery (serving/fault.h) -----------------------

  /// Progress snapshot of one resident sequence — what a fault wastes and
  /// what a host restore must re-fetch.
  struct ResidentInfo {
    std::int64_t request_id = -1;
    std::int64_t prefilled = 0;  ///< prompt tokens pushed (incl. prefix hits)
    std::int64_t prefix_skipped = 0;  ///< served from the prefix cache, never
                                      ///< actually computed by this sequence
    std::int64_t generated = 0;       ///< tokens decoded (>= 1 once the first
                                      ///< token was emitted)
  };

  /// The resident sequence at `index` (admission order, must be
  /// < running_count()) — the driver picks kv-loss victims by index so
  /// the choice is deterministic and platform-independent.
  ResidentInfo resident_info(std::size_t index) const;

  /// Fault: removes `request_id` from the engine — resident (device KV
  /// invalidated via KvCacheManager::invalidate_blocks) or swapped out
  /// (host-pool bytes released) — WITHOUT re-queueing it.  The caller
  /// owns what happens next: backoff re-admission (requeue_after_fault)
  /// or a fault shed.  `*out` receives the request, `*progress` (optional)
  /// the progress lost.  Returns false when the id is not in the engine.
  bool remove_for_fault(std::int64_t request_id, Request* out,
                        ResidentInfo* progress = nullptr);

  /// Fault recovery: re-enters a previously removed request through the
  /// admission policy once its backoff expired.  Requests that already
  /// streamed their first token re-queue with preempt seniority (FIFO
  /// front, EDF shed-exempt — their TTFT verdict is settled); the rest
  /// re-enter as fresh arrivals.
  void requeue_after_fault(const Request& request, bool emitted_first_token);

  /// Fault recovery (host shadow): re-materializes a RESIDENT sequence's
  /// device KV in place after a kv-loss event, when the host pool could
  /// hold the shadow (KvCacheManager::restore_from_host).  On success the
  /// sequence keeps all progress and `*bytes` is the PCIe re-fetch the
  /// driver charges to the clock; on failure the caller falls back to
  /// remove_for_fault + recompute.
  bool restore_resident_from_host(std::int64_t request_id, Bytes* bytes);

  /// Graceful degradation (serving/fault.h): caps the resident batch at
  /// `degraded_max_batch` while `degraded` (0 = keep the configured
  /// max_batch) and forwards the mode to the admission policy (EDF
  /// tightens shedding).  Residents over the cap are not evicted; the cap
  /// only throttles new admissions.
  void set_degraded(bool degraded, int degraded_max_batch);
  bool degraded() const { return degraded_; }

  std::size_t waiting_count() const { return admission_->size(); }
  std::size_t running_count() const { return resident_.size(); }
  std::size_t swapped_count() const { return swapped_.size(); }
  /// Residents past prefill (the decode batch size), tracked
  /// incrementally — the time-series sampler reads this per sample.
  std::int64_t resident_decoder_count() const { return resident_decoders_; }
  std::int64_t total_steps() const { return total_steps_; }
  std::int64_t preemptions() const { return counters_.total_preemptions(); }
  const ServingCounters& counters() const { return counters_; }
  const AdmissionPolicy& admission_policy() const { return *admission_; }

 private:
  /// Cold snapshot of one sequence — the representation swapped-out
  /// sequences keep while they live off the device.  Swap transitions are
  /// rare; nothing per-step ever walks these.
  struct Sequence {
    Request request;
    std::int64_t prefilled = 0;  ///< prompt tokens pushed through the model
    std::int64_t generated = 0;  ///< tokens decoded so far (incl. first)
    std::int64_t prefix_skipped = 0;  ///< leading tokens served from the
                                      ///< prefix cache (prefill starts here)
    std::int64_t swapped_tokens = 0;  ///< host-pool KV tokens, snapshotted at
                                      ///< swap-out (constant while on host) —
                                      ///< saves a per-step manager lookup in
                                      ///< the swap-in watermark
    bool prefilling() const { return prefilled < request.prompt_len; }
  };

  /// Struct-of-arrays pool for RESIDENT sequences: the per-sequence fields
  /// the step builders read every iteration live in parallel arrays indexed
  /// by a dense, free-listed slot, so the decode hot loop streams
  /// contiguous integers instead of chasing per-request heap nodes.
  /// `resident_` holds the live slots in admission order — compaction,
  /// eviction, and finish move 4-byte slot ids, never whole sequences.  The
  /// full Request stays in a parallel COLD array the hot loop touches only
  /// on rare transitions (finish / preempt / fault / trace emission).
  struct SequencePool {
    std::vector<std::int64_t> prompt_len;
    std::vector<std::int64_t> output_len;
    std::vector<std::int64_t> prefilled;
    std::vector<std::int64_t> generated;
    std::vector<std::int64_t> prefix_skipped;
    std::vector<std::int64_t> bucket;   ///< cached decode cost bucket —
                                        ///< valid iff the slot is a decoder
    std::vector<std::int32_t> kv_slot;  ///< KvCacheManager dense handle:
                                        ///< growth checks index an array
                                        ///< instead of hashing request ids
    std::vector<Request> request;       ///< cold: events / requeue / audits
    std::vector<std::int32_t> free_list;

    /// Returns a free slot, extending every array in lockstep on demand.
    std::int32_t acquire();
    void release(std::int32_t slot) { free_list.push_back(slot); }
  };

  /// KV tokens reserved at admission: the whole sequence under kNone
  /// (growth can never fail), prompt + first token under preemption
  /// policies (grown per decode step).
  std::int64_t admission_reserve_tokens(const Request& request) const;

  // --- Incremental decoder aggregates ------------------------------------
  // Invariants over `resident_` slots with !slot_prefilling():
  //   resident_decoders_ = their count,
  //   pending_growth_blocks_ = KV BLOCKS the next decode step must be able
  //                            to allocate: decoders that still grow
  //                            (generated + 1 < output_len) AND whose next
  //                            token crosses a block boundary
  //                            (KvCacheManager::grow_needs_block_slot).  At
  //                            block size 1 every growing decoder crosses,
  //                            so this equals the pre-paging growing count.
  //   decode_kv_histogram_ = sorted (bucket_up(prompt + generated), count)
  //                          pairs, counts > 0.  Kept in cost-bucket TOKEN
  //                          units: it feeds the step-cost cache, whose
  //                          shapes are token-bucketed, not block-sized.
  //   pool_.bucket[slot] caches bucket_up(prompt + generated) per decoder,
  //   so the advance loop detects bucket crossings with one compare
  //   (kv_len == bucket ⇒ the next token crosses) instead of re-rounding.
  bool slot_prefilling(std::int32_t slot) const {
    return pool_.prefilled[slot] < pool_.prompt_len[slot];
  }
  bool sequence_grows(std::int32_t slot) const {
    return pool_.generated[slot] + 1 < pool_.output_len[slot];
  }
  /// Blocks the next decode step must allocate for `slot` (0 or 1).  At
  /// block size 1 — the golden-pinned default — EVERY grow crosses a block
  /// boundary (tokens % 1 == 0 always), so the KV-manager probe is skipped
  /// entirely on that path.
  std::int64_t growth_blocks(std::int32_t slot) const {
    return sequence_grows(slot) &&
                   (config_.kv_block_tokens == 1 ||
                    kv_cache_->grow_needs_block_slot(pool_.kv_slot[slot]))
               ? 1
               : 0;
  }
  std::int64_t decode_bucket(std::int32_t slot) const {
    return round_up(pool_.prompt_len[slot] + pool_.generated[slot],
                    config_.seqlen_bucket);
  }
  void histogram_add(std::int64_t bucket);
  void histogram_remove(std::int64_t bucket);
  void decoder_enter(std::int32_t slot);
  void decoder_leave(std::int32_t slot);
  /// Moves decoder `slot` to its next cost bucket (its KV length just
  /// spilled past the cached one), histogram included.
  void cross_bucket(std::int32_t slot);
  /// Records a sequence whose last token was emitted this step: its id
  /// joins finished_ids, its KV is released, the policy is told and the
  /// head-of-line memo dropped.  The caller owns the decoder aggregates
  /// and the pool slot.
  void retire(std::int32_t slot, StepRecord* record);
  /// The resident_ entry holding `request_id`, or resident_.end().
  std::vector<std::int32_t>::iterator find_resident(std::int64_t request_id);
  /// PCIe bytes to move a sequence's computed KV (swap, host restore).
  Bytes computed_kv_bytes(std::int64_t prefilled,
                          std::int64_t generated) const;
  /// Fills a freshly acquired pool slot from a request plus progress state
  /// and appends it to `resident_`.  The KV entry must already be resident
  /// (kv_slot is resolved here, once per admission).
  std::int32_t resident_append(const Request& request, std::int64_t prefilled,
                               std::int64_t generated,
                               std::int64_t prefix_skipped);

  /// Capacity snapshot handed to AdmissionPolicy::select.
  AdmissionContext admission_context() const;

  /// The batch cap admissions honour right now: the configured max_batch,
  /// tightened to degraded_max_batch_ while degradation is active.  Never
  /// below 1 (a degraded engine still serves).
  int effective_max_batch() const {
    return degraded_ && degraded_max_batch_ > 0 &&
                   degraded_max_batch_ < config_.max_batch
               ? degraded_max_batch_
               : config_.max_batch;
  }

  /// Swap-in watermark: beyond the restore itself, one decode step's
  /// growth must still fit.  A re-entrant sequence is the NEWEST
  /// admission, so restoring into a device that growth pressure will
  /// immediately squeeze would swap it straight back out, paying
  /// round-trip PCIe for zero progress.  With nothing resident the
  /// watermark is waived (there is no pressure to re-evict, and blocking
  /// would deadlock).
  bool swap_in_fits(const Sequence& sequence) const;
  void swap_in_and_admit(StepRecord* record);
  /// Drains the admission policy's deadline sheds into `record->shed_ids`,
  /// counting them and emitting trace events.
  void drain_shed(StepRecord* record);
  void build_prefill_step(StepRecord* record);
  /// Evicts (or swaps out) residents until every decoder's next-token
  /// growth fits, then advances every decoder one token in a single pass
  /// over resident_: bulk growth when can_bulk_grow holds for the whole
  /// batch, otherwise a CHECKed try_grow_slot per decoder (none under
  /// kNone).  A step without bulk growth may reclaim cached prefix blocks,
  /// so it drops the head-of-line memo.  Returns false when KV pressure evicted every decode
  /// participant (the caller falls back to a prefill step).
  bool build_decode_step(StepRecord* record);

  SchedulerConfig config_;
  KvCacheManager* kv_cache_;
  std::unique_ptr<AdmissionPolicy> admission_;  ///< owns the waiting set
  ServingTrace* trace_ = nullptr;   ///< optional observer (never scheduling)
  Seconds now_ = 0;                 ///< simulated clock (see set_time)
  std::deque<Sequence> swapped_;    ///< swap-out order (FIFO re-admission)
  SequencePool pool_;               ///< SoA storage for resident sequences
  std::vector<std::int32_t> resident_;  ///< live pool slots, admission order
  std::int64_t resident_decoders_ = 0;
  std::int64_t pending_growth_blocks_ = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> decode_kv_histogram_;
  bool last_step_prefill_ = false;  ///< interleave state under chunking
  bool may_shed_ = false;           ///< cached AdmissionPolicy::may_shed()
  bool admit_memo_ok_ = false;  ///< cached AdmissionPolicy::select_is_pure()
  /// Head-of-line admission probe memo (pure-select policies only): set
  /// when try_admit rejected the policy's head, cleared by ANY structural
  /// change that could alter the probe's outcome — enqueue/requeue, a
  /// release or eviction freeing blocks, swap traffic, prefill progress
  /// (prefix-cache state), fault surgery, or a degradation toggle.  Pure
  /// decode growth only consumes capacity, so while the flag holds the
  /// probe would fail identically and is skipped.
  bool admit_blocked_ = false;
  bool degraded_ = false;           ///< graceful-degradation mode
  int degraded_max_batch_ = 0;      ///< batch cap while degraded (0 = none)
  std::int64_t total_steps_ = 0;
  ServingCounters counters_;
  std::vector<Request> shed_scratch_;  ///< drain_shed buffer (reused)
  /// Requests enqueued via enqueue_prefilled, pending admission.  Empty on
  /// every non-disaggregated run: the admission hot path short-circuits on
  /// empty() before any hashing.
  std::unordered_set<std::int64_t> prefilled_pending_;
};

}  // namespace cimtpu::serving
