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
// "fifo" by default — bit-identical to the pre-API scheduler — plus "wfq"
// (per-tenant weighted fair queueing) and "edf" (deadline order with
// shedding).
//
// Admission reserves a sequence's prompt plus its first token; decode
// grows the rest a block at a time.  When that growth outruns the device
// budget the scheduler preempts under the KvCacheManager's policy:
// recompute victims
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
// Hot-path design: a decode step costs O(1) plus the decoders that have
// something due.  Every resident decoder joins every decode step, so each
// one's progress is an offset from ONE decode clock (the KV manager's
// advance clock): generated = clock + offset, and its KV entry advances by
// the same clock (kv_cache_manager.h, "Decode advance").  A STEP CALENDAR
// holds each decoder's next event — the step its cost bucket changes or
// the step that finishes it — and a decoder whose next step finishes it
// leaves the calendar (it no longer grows).  A step copies the incremental
// bucketed-KV histogram as its decode grouping, releases the finishers in
// admission order, commits one KV advance (only
// the decoders whose next token starts a block allocate, counted by clock
// phase), ticks the clock and pops the calendar entries now due.  The
// aggregates — resident decoder count and the sorted histogram — are
// written once per transition (decoder_enter / decoder_leave /
// cross_bucket / retire), so planning never rescans the resident set.
// Step costs come from the analytic simulator, memoized per (batch,
// bucketed-seqlen) shape in a flat open-addressed table (StepCostCache,
// step_cost_cache.h).  `cost_step` sums PER-SEQUENCE attention costs over
// each participant's actual (bucketed) KV length — decode participants
// arrive pre-grouped by bucket via the histogram, so costing a step is
// allocation-free.
//
// Quiet decode runs: most decode steps change nothing but token counts —
// same bucketed grouping as the step before, no arrival, finish,
// admission, swap, reclaim or eviction.  `quiet_decode_steps` says how
// many such steps lie ahead: up to the calendar's next event (a crossing
// step still attends inside its bucket, so it ends the run it belongs
// to), capped so every step's KV growth fits the free blocks.  Then
// `advance_quiet_decode` commits them as one KV advance and one calendar
// pop: the scheduler and KV manager end bit-identical to stepping one at a
// time, at any KV block size.  A run may stand over a queue: waiting or
// swapped work that cannot enter while it lasts (full batch, swapped front
// under the swap-in watermark, or a memoized head-of-line block) leaves
// every step quiet, since a run only shrinks free blocks.  Shedding (EDF)
// admission keeps such steps per-step.  A regrouping only starts the next
// run, so the serving engine chains runs back to back and replays only
// the per-step clock, energy and fragmentation sums for them
// (serving_sim.h).

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "serving/admission_policy.h"
#include "serving/fault.h"
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

  /// Which waiting request joins the batch next: an AdmissionPolicy by
  /// name ("fifo" default — the pre-API behaviour — plus "wfq" and "edf";
  /// see serving/admission_policy.h).
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

  /// Prefill only: each participant's new prompt tokens this step and its
  /// tokens already prefilled; it attends over prev_lens + chunk_lens.
  /// Decode records leave both empty and carry decode_groups instead.
  std::vector<std::int64_t> chunk_lens;
  std::vector<std::int64_t> prev_lens;

  /// Decode only (never empty there): participants grouped by bucketed KV
  /// length, ascending, as (bucket, count) pairs summing to `batch` — a
  /// copy of the scheduler's incremental histogram, so cost_step never
  /// derives the grouping.
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
/// own bucketed KV length.  A decode record is costed from its
/// decode_groups (CHECKed non-empty) through cost_decode_groups, or the
/// cache's memo of the last grouping; prefill participants are costed as
/// the telescoped difference prefill(prev + chunk) - prefill(prev), so a
/// chunked prompt's total prefill cost is identical to the unchunked cost
/// of the same prompt.
/// The same telescoping prices chunks that START mid-sequence: a
/// prefix-cache hit enters prefill with prev = hit tokens, so only the
/// uncached suffix is ever charged.
StepCost cost_step(StepCostCache& costs, const StepRecord& step);

/// The decode half of cost_step for a (bucket, count) grouping: sums one
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

  /// Advances the policy-visible simulated clock (EDF's deadline sheds).
  /// The serving loop calls this before each next_step; direct drivers may
  /// never call it (the clock stays 0).
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

  /// How many upcoming decode steps are QUIET: each carries today's
  /// decode_histogram() as its decode_groups, finishes no sequence, emits
  /// no event, and grows every decoder inside the free (never cached) KV
  /// blocks, so it neither evicts nor reclaims and keeps the head-of-line
  /// memo.  That is the calendar's next event step minus the clock (the
  /// crossing step, which still attends inside the bucket, is the run's
  /// last), capped at block_tokens * (free blocks / decoders): no decoder
  /// starts more than one block per block_tokens steps.  0 unless every
  /// resident is a decoder, none finishes next step, no trace sink is
  /// attached, and any waiting or swapped work is locked out for the whole
  /// run under a non-shedding policy: the batch is full, the swapped front
  /// fails the swap-in watermark, or (nothing swapped) the head-of-line
  /// memo is set.  Free blocks only shrink and the decoder count stays
  /// fixed during a run, so each lock holds until it ends.  O(1).
  /// Only valid while no request arrives meanwhile — the caller stops the
  /// run at its next enqueue (which clears the memo).
  std::int64_t quiet_decode_steps() const;

  /// Commits `steps` (<= quiet_decode_steps()) quiet decode steps: one KV
  /// advance of `steps`, then the calendar entries due at the new clock
  /// (a decoder whose run ended on its crossing step moves to its next
  /// bucket).  The scheduler, its counters, the histogram, and the KV
  /// manager end exactly as `steps` next_step calls would leave them.
  void advance_quiet_decode(std::int64_t steps);

  /// Test hook: the KV length each resident decoder attends over in the
  /// next decode step (prompt + generated), in admission order — the
  /// per-participant lengths a decode record does not list (it carries
  /// only their bucketed grouping).  O(batch); nothing on the serving path
  /// calls it.
  std::vector<std::int64_t> decode_kv_lens() const;

  /// The bucketed-KV grouping the next decode step carries (its
  /// decode_groups), maintained incrementally.
  const std::vector<std::pair<std::int64_t, std::int64_t>>& decode_histogram()
      const {
    return decode_kv_histogram_;
  }

  /// Test-only audit: recomputes the incremental decoder aggregates
  /// (decoder count, bucketed-KV histogram, each decoder's calendar entry
  /// or finishing count, the KV manager's advancing entries and next
  /// growth) from a full scan of the resident sequences and compares them
  /// to the tracked values.
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
  /// invalidated via KvCacheManager::invalidate_slot) or swapped out
  /// (host-pool bytes released via invalidate_blocks) — WITHOUT re-queueing it.  The caller
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

  /// Graceful degradation (serving/fault.h): while `degraded`, caps the
  /// resident batch at kDegradedMaxBatchFraction of max_batch (floor, at
  /// least 1) and forwards the mode to the admission policy (EDF sheds
  /// kDegradedExtraShedSlackSeconds early).  Residents over the cap are
  /// not evicted; the cap only throttles new admissions.
  void set_degraded(bool degraded);

  std::size_t waiting_count() const { return admission_->size(); }
  std::size_t running_count() const { return resident_.size(); }
  std::size_t swapped_count() const { return swapped_.size(); }
  /// Residents past prefill (the decode batch size), tracked
  /// incrementally — the time-series sampler reads this per sample.
  std::int64_t resident_decoder_count() const { return resident_decoders_; }
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
  };

  /// Struct-of-arrays pool for RESIDENT sequences: the per-sequence fields
  /// the step builders and the calendar read live in parallel arrays
  /// indexed by a dense, free-listed slot.  `resident_` holds the live
  /// slots in admission order — compaction, eviction, and finish move
  /// 4-byte slot ids, never whole sequences.  The full Request stays in a
  /// parallel COLD array touched only on rare transitions (finish /
  /// preempt / fault / trace emission).
  struct SequencePool {
    std::vector<std::int64_t> prompt_len;
    std::vector<std::int64_t> output_len;
    std::vector<std::int64_t> prefilled;
    /// Tokens decoded so far (incl. first); for a decoder, that minus the
    /// decode clock (read through generated_of).
    std::vector<std::int64_t> generated;
    std::vector<std::int64_t> prefix_skipped;
    std::vector<std::int64_t> bucket;   ///< cached decode cost bucket —
                                        ///< valid iff the slot is a decoder
    std::vector<std::int32_t> kv_slot;  ///< KvCacheManager dense handle
                                        ///< (-1 once retired)
    std::vector<Request> request;       ///< cold: events / requeue / audits
    std::vector<std::int32_t> free_list;

    /// Returns a free slot, extending every array in lockstep on demand.
    std::int32_t acquire();
    void release(std::int32_t slot) { free_list.push_back(slot); }
  };

  /// The step calendar: an indexed binary min-heap of decoder slots keyed
  /// by the decode-clock step of each one's next event.  Storage grows
  /// with the pool and is reused, so steady-state stepping never
  /// allocates.
  class StepCalendar {
   public:
    void reserve(std::size_t entries) { heap_.reserve(entries); }
    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }
    bool contains(std::int32_t slot) const {
      return static_cast<std::size_t>(slot) < pos_.size() && pos_[slot] >= 0;
    }
    std::int32_t top() const { return heap_.front().slot; }
    std::int64_t top_step() const { return heap_.front().step; }
    std::int64_t step_of(std::int32_t slot) const {
      return heap_[static_cast<std::size_t>(pos_[slot])].step;
    }
    void push(std::int32_t slot, std::int64_t step);
    void remove(std::int32_t slot);
    /// Moves the top entry to a later `step`.
    void reschedule_top(std::int64_t step);
    /// True when every entry's step is no later than its children's.
    bool heap_ordered() const;

   private:
    struct Event {
      std::int64_t step;
      std::int32_t slot;
    };
    void sift_up(std::size_t index, Event event);
    void sift_down(std::size_t index, Event event);
    void place(std::size_t index, Event event) {
      heap_[index] = event;
      pos_[event.slot] = static_cast<std::int32_t>(index);
    }

    std::vector<Event> heap_;
    std::vector<std::int32_t> pos_;  ///< by slot: heap index, -1 = absent
  };

  // --- Incremental decoder aggregates ------------------------------------
  // Invariants over `resident_` slots with !slot_prefilling() (decoders):
  //   resident_decoders_ = their count;
  //   decode_kv_histogram_ = sorted (bucket_up(prompt + generated), count)
  //     pairs, counts > 0.  Kept in cost-bucket TOKEN units: it feeds the
  //     step-cost cache, whose shapes are token-bucketed, not block-sized;
  //   pool_.bucket[slot] = bucket_up(prompt + generated);
  //   a decoder whose next decode step finishes it is off the calendar
  //     (counted in finishing_) and its KV entry does not advance; every
  //     other decoder's KV entry advances and it sits in calendar_ at
  //     next_event(slot).
  bool slot_prefilling(std::int32_t slot) const {
    return pool_.prefilled[slot] < pool_.prompt_len[slot];
  }
  /// Tokens `slot` has decoded, settled from the decode clock.
  std::int64_t generated_of(std::int32_t slot) const {
    return slot_prefilling(slot)
               ? pool_.generated[slot]
               : pool_.generated[slot] + kv_cache_->advance_clock();
  }
  /// The clock at which decoder `slot`'s next event is due: the step that
  /// finishes it (generated reaches output_len), or the step after the one
  /// that attends at exactly its bucket (its KV length then spills into the
  /// next bucket), whichever comes first.
  std::int64_t next_event(std::int32_t slot) const {
    const std::int64_t offset = pool_.generated[slot];
    return std::min(pool_.output_len[slot] - 1 - offset,
                    pool_.bucket[slot] - pool_.prompt_len[slot] - offset + 1);
  }
  void histogram_add(std::int64_t bucket);
  void histogram_remove(std::int64_t bucket);
  /// Makes `slot` (generated stored as a count) a decoder: histogram,
  /// offset, and KV advance plus calendar entry (or, one token from its
  /// end, a finishing_ count).
  void decoder_enter(std::int32_t slot);
  /// Undoes decoder_enter, leaving generated stored as a count again.
  void decoder_leave(std::int32_t slot);
  /// Moves decoder `slot` to its next cost bucket (its KV length just
  /// spilled past the cached one), histogram included.
  void cross_bucket(std::int32_t slot);
  /// Commits `steps` decode steps for every decoder: one KV advance, then
  /// the calendar entries due at the new clock — bucket crossings, and
  /// decoders whose next step finishes them leave the calendar and stop
  /// advancing.  Returns the cached KV blocks the advance reclaimed.
  std::int64_t advance_decoders(std::int64_t steps);
  /// Drops slots retired by a prefill step (kv_slot -1) from resident_,
  /// keeping its order, and recycles them.
  void compact_retired();
  /// Records a sequence whose last token was emitted this step: its id
  /// joins finished_ids, its KV is released (kv_slot becomes -1 for
  /// compact_retired), the policy is told and the head-of-line memo
  /// dropped.  The caller owns the decoder aggregates.
  void retire(std::int32_t slot, StepRecord* record);
  /// The resident_ entry holding `request_id`, or resident_.end().
  std::vector<std::int32_t>::iterator find_resident(std::int64_t request_id);
  /// PCIe bytes to move a sequence's computed KV (swap, host restore).
  Bytes computed_kv_bytes(std::int64_t prefilled,
                          std::int64_t generated) const;
  /// Fills a freshly acquired pool slot from a request, the KV slot its
  /// admission or swap-in returned, and progress state, and appends it to
  /// `resident_`.
  std::int32_t resident_append(const Request& request, std::int32_t kv_slot,
                               std::int64_t prefilled, std::int64_t generated,
                               std::int64_t prefix_skipped);

  /// The batch cap admissions honour right now: the configured max_batch,
  /// tightened to degraded_max_batch_ while degradation is active.
  int effective_max_batch() const {
    return degraded_ ? degraded_max_batch_ : config_.max_batch;
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
  /// Evicts (or swaps out) residents until the step's KV growth fits,
  /// releases the finishing decoders in admission order, then advances
  /// every decoder one token (advance_decoders).  When the growth needs
  /// more than the free blocks, the growth of decoders admitted before each
  /// finisher is allocated before its release, as a per-decoder pass in
  /// admission order would.  A step that reclaims cached prefix blocks
  /// drops the head-of-line memo.  Returns false when KV pressure evicted
  /// every decode participant (the caller falls back to a prefill step).
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
  std::vector<std::pair<std::int64_t, std::int64_t>> decode_kv_histogram_;
  StepCalendar calendar_;
  std::int64_t finishing_ = 0;  ///< decoders the next decode step finishes
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
  int degraded_max_batch_;          ///< batch cap while degraded (>= 1)
  ServingCounters counters_;
  std::vector<Request> shed_scratch_;  ///< drain_shed buffer (reused)
  /// Requests enqueued via enqueue_prefilled, pending admission.  Empty on
  /// every non-disaggregated run: the admission hot path short-circuits on
  /// empty() before any hashing.
  std::unordered_set<std::int64_t> prefilled_pending_;
};

}  // namespace cimtpu::serving
