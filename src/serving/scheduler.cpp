#include "serving/scheduler.h"

#include <algorithm>
#include <limits>

#include "common/math_util.h"
#include "common/status.h"

namespace cimtpu::serving {

void SchedulerConfig::validate() const {
  CIMTPU_CONFIG_CHECK(max_batch >= 1, "max_batch must be >= 1");
  CIMTPU_CONFIG_CHECK(max_prefill_batch >= 1, "max_prefill_batch must be >= 1");
  CIMTPU_CONFIG_CHECK(seqlen_bucket >= 1, "seqlen_bucket must be >= 1");
  CIMTPU_CONFIG_CHECK(
      prefill_chunk_tokens == 0 || prefill_chunk_tokens >= seqlen_bucket,
      "prefill_chunk_tokens (" << prefill_chunk_tokens
                               << ") must be 0 (disabled) or >= seqlen_bucket ("
                               << seqlen_bucket
                               << ") so every chunk advances its cost bucket");
  CIMTPU_CONFIG_CHECK(kv_block_tokens >= 1,
                      "kv_block_tokens must be >= 1, got " << kv_block_tokens);
  admission.validate();
}

void StepRecord::clear() {
  kind = Kind::kDecode;
  batch = 0;
  kv_lens.clear();
  chunk_lens.clear();
  prev_lens.clear();
  decode_groups.clear();
  first_token_ids.clear();
  finished_ids.clear();
  preempted_ids.clear();
  swapped_out_ids.clear();
  swapped_in_ids.clear();
  shed_ids.clear();
  swap_bytes = 0;
  chunked = false;
}

void StepRecord::reserve(int max_batch, int max_prefill_batch) {
  CIMTPU_CHECK(max_batch >= 1 && max_prefill_batch >= 1);
  const auto batch = static_cast<std::size_t>(max_batch);
  const auto prefill = static_cast<std::size_t>(max_prefill_batch);
  kv_lens.reserve(batch);
  chunk_lens.reserve(prefill);
  prev_lens.reserve(prefill);
  decode_groups.reserve(batch);
  first_token_ids.reserve(prefill);
  finished_ids.reserve(batch);
  preempted_ids.reserve(batch);
  swapped_out_ids.reserve(batch);
  swapped_in_ids.reserve(batch);
  shed_ids.reserve(batch);
}

namespace {

void accumulate_into(StepCost& total, const StepCost& cost, double sign) {
  total.latency += sign * cost.latency;
  total.mxu_busy_time += sign * cost.mxu_busy_time;
  total.mxu_energy += sign * cost.mxu_energy;
  total.total_energy += sign * cost.total_energy;
}

}  // namespace

StepCost cost_decode_groups(
    StepCostCache& costs,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& groups,
    std::int64_t batch) {
  StepCost total;
  std::int64_t grouped = 0;
  for (const auto& [kv_len, count] : groups) {
    accumulate_into(total, costs.decode_layer(count, kv_len), +1.0);
    grouped += count;
  }
  CIMTPU_CHECK(grouped == batch);
  costs.remember_decode_groups(groups, batch, total);
  return total;
}

StepCost cost_step(StepCostCache& costs, const StepRecord& step) {
  CIMTPU_CHECK(step.batch ==
               static_cast<std::int64_t>(step.kv_lens.size()));
  StepCost total;
  if (step.kind == StepRecord::Kind::kPrefill) {
    // A chunk of new prompt tokens attends over everything prefilled so
    // far, so its cost is the increment between two full-prefill shapes:
    // prefill(prev + chunk) - prefill(prev).  Prefill cost is monotone in
    // sequence length, so the difference is non-negative, and summed over
    // a prompt's chunks it telescopes to exactly the unchunked cost.
    // Each participant is costed at batch 1: the historical (pessimistic)
    // model every golden pin was recorded under.
    for (std::size_t i = 0; i < step.kv_lens.size(); ++i) {
      accumulate_into(
          total,
          costs.prefill_layer(1, step.prev_lens[i] + step.chunk_lens[i]),
          +1.0);
      if (step.prev_lens[i] > 0) {
        accumulate_into(total, costs.prefill_layer(1, step.prev_lens[i]),
                        -1.0);
      }
    }
  } else if (!step.decode_groups.empty()) {
    // Scheduler-built steps carry the bucketed grouping (a copy of the
    // incremental histogram, ascending): one memoized decode shape per
    // group, no per-step re-derivation.  Steady decode runs repeat the
    // same grouping step after step, so the summed cost itself is memoized
    // on the grouping (see StepCostCache::remember_decode_groups).
    if (costs.last_decode_groups_match(step.decode_groups)) {
      CIMTPU_CHECK(costs.last_decode_groups_batch() == step.batch);
      return costs.last_decode_groups_cost();
    }
    return cost_decode_groups(costs, step.decode_groups, step.batch);
  } else {
    // Hand-built records (tests, external callers): derive the grouping
    // from kv_lens in the cache's reusable scratch.  Sorting ascending
    // reproduces the histogram path's accumulation order bit for bit.
    std::vector<std::int64_t>& scratch = costs.decode_group_scratch();
    scratch.clear();
    scratch.reserve(step.kv_lens.size());
    for (std::int64_t kv_len : step.kv_lens) {
      scratch.push_back(costs.bucket_up(kv_len));
    }
    std::sort(scratch.begin(), scratch.end());
    for (std::size_t i = 0; i < scratch.size();) {
      std::size_t j = i;
      while (j < scratch.size() && scratch[j] == scratch[i]) ++j;
      accumulate_into(
          total,
          costs.decode_layer(static_cast<std::int64_t>(j - i), scratch[i]),
          +1.0);
      i = j;
    }
  }
  return total;
}

std::int32_t ContinuousBatchScheduler::SequencePool::acquire() {
  if (!free_list.empty()) {
    const std::int32_t slot = free_list.back();
    free_list.pop_back();
    return slot;
  }
  const std::int32_t slot = static_cast<std::int32_t>(prompt_len.size());
  prompt_len.push_back(0);
  output_len.push_back(0);
  prefilled.push_back(0);
  generated.push_back(0);
  prefix_skipped.push_back(0);
  bucket.push_back(0);
  kv_slot.push_back(-1);
  request.emplace_back();
  return slot;
}

ContinuousBatchScheduler::ContinuousBatchScheduler(
    const SchedulerConfig& config, KvCacheManager* kv_cache)
    : config_(config),
      kv_cache_(kv_cache),
      admission_(make_admission_policy(config.admission)) {
  config_.validate();
  may_shed_ = admission_->may_shed();
  admit_memo_ok_ = admission_->select_is_pure();
  CIMTPU_CHECK(kv_cache != nullptr);
  CIMTPU_CONFIG_CHECK(
      kv_cache->block_tokens() == config_.kv_block_tokens,
      "SchedulerConfig::kv_block_tokens ("
          << config_.kv_block_tokens << ") disagrees with the KvCacheManager ("
          << kv_cache->block_tokens() << ")");
  CIMTPU_CONFIG_CHECK(
      kv_cache->prefix_cache_enabled() == config_.enable_prefix_cache,
      "SchedulerConfig::enable_prefix_cache disagrees with the "
      "KvCacheManager");
}

void ContinuousBatchScheduler::enqueue(const Request& request) {
  CIMTPU_CONFIG_CHECK(request.prompt_len >= 1,
                      "request " << request.id << " has empty prompt");
  CIMTPU_CONFIG_CHECK(request.output_len >= 1,
                      "request " << request.id << " generates no tokens");
  CIMTPU_CONFIG_CHECK(
      request.prefix_len >= 0 && request.prefix_len <= request.prompt_len,
      "request " << request.id << " has prefix_len " << request.prefix_len
                 << " outside [0, prompt_len=" << request.prompt_len << "]");
  admission_->on_enqueue(request, total_steps_);
  admit_blocked_ = false;
}

void ContinuousBatchScheduler::enqueue_prefilled(const Request& request) {
  CIMTPU_CONFIG_CHECK(request.prompt_len >= 1,
                      "request " << request.id << " has empty prompt");
  CIMTPU_CONFIG_CHECK(request.output_len >= 2,
                      "prefilled request "
                          << request.id
                          << " has no decode work (output_len="
                          << request.output_len << ")");
  CIMTPU_CONFIG_CHECK(
      request.prefix_id < 0,
      "prefilled request " << request.id
                           << " carries a prefix_id; disaggregated decode "
                              "admission bypasses the prefix cache");
  prefilled_pending_.insert(request.id);
  admission_->on_enqueue(request, total_steps_);
  admit_blocked_ = false;
}

std::int64_t ContinuousBatchScheduler::admission_reserve_tokens(
    const Request& request) const {
  return kv_cache_->policy() == EvictionPolicy::kNone
             ? request.prompt_len + request.output_len
             : request.prompt_len + 1;
}

void ContinuousBatchScheduler::histogram_add(std::int64_t bucket) {
  const auto it = std::lower_bound(
      decode_kv_histogram_.begin(), decode_kv_histogram_.end(), bucket,
      [](const std::pair<std::int64_t, std::int64_t>& entry,
         std::int64_t value) { return entry.first < value; });
  if (it != decode_kv_histogram_.end() && it->first == bucket) {
    ++it->second;
  } else {
    decode_kv_histogram_.insert(it, {bucket, 1});
  }
}

void ContinuousBatchScheduler::histogram_remove(std::int64_t bucket) {
  const auto it = std::lower_bound(
      decode_kv_histogram_.begin(), decode_kv_histogram_.end(), bucket,
      [](const std::pair<std::int64_t, std::int64_t>& entry,
         std::int64_t value) { return entry.first < value; });
  CIMTPU_CHECK(it != decode_kv_histogram_.end() && it->first == bucket &&
               it->second > 0);
  if (--it->second == 0) decode_kv_histogram_.erase(it);
}

void ContinuousBatchScheduler::decoder_enter(std::int32_t slot) {
  ++resident_decoders_;
  pending_growth_blocks_ += growth_blocks(slot);
  const std::int64_t bucket = decode_bucket(slot);
  pool_.bucket[slot] = bucket;
  histogram_add(bucket);
  if (trace_) {
    trace_->on_decode_enter(pool_.request[slot].id, bucket);
  }
}

void ContinuousBatchScheduler::decoder_leave(std::int32_t slot) {
  --resident_decoders_;
  pending_growth_blocks_ -= growth_blocks(slot);
  histogram_remove(pool_.bucket[slot]);
}

void ContinuousBatchScheduler::cross_bucket(std::int32_t slot) {
  // Buckets are multiples of seqlen_bucket, so the next bucket is exactly
  // one bucket width further.
  const std::int64_t old_bucket = pool_.bucket[slot];
  const std::int64_t new_bucket = old_bucket + config_.seqlen_bucket;
  histogram_remove(old_bucket);
  histogram_add(new_bucket);
  pool_.bucket[slot] = new_bucket;
}

void ContinuousBatchScheduler::retire(std::int32_t slot, StepRecord* record) {
  const Request& request = pool_.request[slot];
  record->finished_ids.push_back(request.id);
  kv_cache_->release(request.id);
  admission_->on_finish(request, total_steps_);
  admit_blocked_ = false;  // finish freed device blocks
}

std::vector<std::int32_t>::iterator ContinuousBatchScheduler::find_resident(
    std::int64_t request_id) {
  return std::find_if(
      resident_.begin(), resident_.end(),
      [&](std::int32_t slot) { return pool_.request[slot].id == request_id; });
}

Bytes ContinuousBatchScheduler::computed_kv_bytes(
    std::int64_t prefilled, std::int64_t generated) const {
  // PCIe traffic covers only pages holding computed KV (prefilled prompt +
  // generated tokens); a mid-prefill sequence's reservation also spans
  // not-yet-written pages, which cost nothing to move.
  return kv_cache_->bytes_per_token() *
         static_cast<double>(prefilled + generated);
}

std::int32_t ContinuousBatchScheduler::resident_append(
    const Request& request, std::int64_t prefilled, std::int64_t generated,
    std::int64_t prefix_skipped) {
  const std::int32_t slot = pool_.acquire();
  pool_.prompt_len[slot] = request.prompt_len;
  pool_.output_len[slot] = request.output_len;
  pool_.prefilled[slot] = prefilled;
  pool_.generated[slot] = generated;
  pool_.prefix_skipped[slot] = prefix_skipped;
  pool_.bucket[slot] = 0;
  pool_.kv_slot[slot] = kv_cache_->resident_slot(request.id);
  pool_.request[slot] = request;
  resident_.push_back(slot);
  return slot;
}

bool ContinuousBatchScheduler::aggregates_consistent() const {
  std::int64_t decoders = 0;
  std::int64_t growing = 0;
  std::vector<std::int64_t> buckets;
  for (const std::int32_t slot : resident_) {
    if (slot_prefilling(slot)) continue;
    ++decoders;
    growing += growth_blocks(slot);
    const std::int64_t bucket = decode_bucket(slot);
    // The cached per-slot bucket must agree with a fresh rounding.
    if (pool_.bucket[slot] != bucket) return false;
    buckets.push_back(bucket);
  }
  if (decoders != resident_decoders_ || growing != pending_growth_blocks_) {
    return false;
  }
  std::sort(buckets.begin(), buckets.end());
  std::vector<std::pair<std::int64_t, std::int64_t>> histogram;
  for (std::size_t i = 0; i < buckets.size();) {
    std::size_t j = i;
    while (j < buckets.size() && buckets[j] == buckets[i]) ++j;
    histogram.emplace_back(buckets[i], static_cast<std::int64_t>(j - i));
    i = j;
  }
  return histogram == decode_kv_histogram_;
}

bool ContinuousBatchScheduler::swap_in_fits(const Sequence& sequence) const {
  const std::int64_t restore_blocks =
      kv_cache_->blocks_for_tokens(sequence.swapped_tokens);
  if (resident_.empty()) {
    return kv_cache_->fits_blocks(restore_blocks);
  }
  // One block of growth headroom for the restored sequence itself plus
  // every resident decoder (tracked incrementally — no rescan per
  // candidate).  Conservative at block sizes > 1: a decoder mid-block
  // needs nothing next step, but headroom is a watermark, not accounting.
  return kv_cache_->fits_blocks(restore_blocks + 1 + resident_decoders_);
}

void ContinuousBatchScheduler::swap_in_and_admit(StepRecord* record) {
  // Swapped-out sequences re-enter first, FIFO: they were admitted before
  // anything still waiting, and restoring them costs a PCIe transfer
  // instead of a prompt recompute.  The watermark (swap_in_fits) keeps one
  // decode step's growth free beyond the restore itself.
  while (!swapped_.empty() &&
         resident_.size() < static_cast<std::size_t>(effective_max_batch()) &&
         swap_in_fits(swapped_.front()) &&
         kv_cache_->try_swap_in(swapped_.front().request.id)) {
    Sequence sequence = swapped_.front();
    swapped_.pop_front();
    const Bytes bytes =
        computed_kv_bytes(sequence.prefilled, sequence.generated);
    record->swapped_in_ids.push_back(sequence.request.id);
    record->swap_bytes += bytes;
    counters_.swap_ins += 1;
    counters_.swap_in_bytes += bytes;
    if (trace_) trace_->on_swap_in(sequence.request.id, bytes);
    const std::int32_t slot =
        resident_append(sequence.request, sequence.prefilled,
                        sequence.generated, sequence.prefix_skipped);
    if (!slot_prefilling(slot)) decoder_enter(slot);
    admit_blocked_ = false;
  }

  // New admissions, in the AdmissionPolicy's order.  A stranded swapped
  // sequence blocks them (it has strict seniority); a candidate the KV
  // manager rejects blocks everything behind it — head-of-line blocking
  // on the policy's OWN choice, exactly the FIFO baseline's semantics.
  int admitted = 0;
  while (swapped_.empty() && !admit_blocked_ && !admission_->empty() &&
         resident_.size() < static_cast<std::size_t>(effective_max_batch()) &&
         admitted < config_.max_prefill_batch) {
    const Request* head = admission_->select(admission_context());
    if (head == nullptr) break;  // policy throttled (e.g. rate caps)
    KvCacheManager::AdmitOutcome outcome;
    if (!kv_cache_->try_admit(head->id, admission_reserve_tokens(*head),
                              head->priority, head->prefix_id,
                              head->prefix_len, head->prompt_len, &outcome)) {
      // Head-of-line block: for a pure-select policy this exact probe
      // repeats (and fails) every step until something structural changes,
      // so remember the block and skip the re-probe until then.
      if (admit_memo_ok_) admit_blocked_ = true;
      break;
    }
    counters_.prefix_lookup_tokens += outcome.lookup_tokens;
    counters_.prefix_hit_tokens += outcome.prefix_hit_tokens;
    counters_.prefix_shared_blocks += outcome.shared_blocks;
    counters_.prefix_cow_blocks += outcome.cow_blocks;
    if (trace_) {
      // While `head` still points into the policy's storage (pop_selected
      // below invalidates it).
      trace_->on_admit(*head, outcome.lookup_tokens,
                       outcome.prefix_hit_tokens, outcome.shared_blocks,
                       outcome.cow_blocks);
    }
    if (!prefilled_pending_.empty() &&
        prefilled_pending_.count(head->id) > 0) {
      // Disaggregated decode admission (enqueue_prefilled): the prompt KV
      // was computed on a prefill replica and streamed over, so the whole
      // prompt maps as already-present (prefix_skipped = prompt_len — the
      // tokens were never computed HERE) and the sequence enters decode
      // directly with its remotely-emitted first token on the books.  No
      // first_token_ids entry is ever recorded for it on this replica.
      const std::int32_t slot =
          resident_append(*head, /*prefilled=*/head->prompt_len,
                          /*generated=*/1,
                          /*prefix_skipped=*/head->prompt_len);
      kv_cache_->note_prefilled_slot(pool_.kv_slot[slot], head->prompt_len);
      prefilled_pending_.erase(head->id);
      decoder_enter(slot);
    } else {
      // A prefix hit starts prefill mid-sequence: the cached leading
      // tokens are never pushed through the model again.  The hit is
      // capped at prompt_len - 1, so a fresh admission always starts
      // prefilling and the decoder aggregates are untouched here.  Copy
      // BEFORE pop_selected: `head` points into the policy's storage.
      resident_append(*head, /*prefilled=*/outcome.prefix_hit_tokens,
                      /*generated=*/0,
                      /*prefix_skipped=*/outcome.prefix_hit_tokens);
    }
    admission_->pop_selected();
    ++admitted;
  }
}

void ContinuousBatchScheduler::drain_shed(StepRecord* record) {
  // Deadline sheds accumulate inside the policy during select(); pull them
  // out every step so counters, trace events, and the step record agree.
  // Non-shedding policies (everything but EDF) never stash anything, so
  // the per-step virtual drain is skipped for them outright.
  if (!may_shed_) return;
  shed_scratch_.clear();
  admission_->drain_shed(&shed_scratch_);
  for (const Request& request : shed_scratch_) {
    record->shed_ids.push_back(request.id);
    counters_.shed_deadline += 1;
    if (trace_) trace_->on_shed(request.id);
  }
}

ContinuousBatchScheduler::ResidentInfo ContinuousBatchScheduler::resident_info(
    std::size_t index) const {
  CIMTPU_CHECK_MSG(index < resident_.size(),
                   "resident_info index out of range");
  const std::int32_t slot = resident_[index];
  ResidentInfo info;
  info.request_id = pool_.request[slot].id;
  info.prefilled = pool_.prefilled[slot];
  info.prefix_skipped = pool_.prefix_skipped[slot];
  info.generated = pool_.generated[slot];
  return info;
}

bool ContinuousBatchScheduler::remove_for_fault(std::int64_t request_id,
                                               Request* out,
                                               ResidentInfo* progress) {
  const auto fill = [&](const Request& request, std::int64_t prefilled,
                        std::int64_t prefix_skipped, std::int64_t generated) {
    if (out != nullptr) *out = request;
    if (progress != nullptr) {
      progress->request_id = request.id;
      progress->prefilled = prefilled;
      progress->prefix_skipped = prefix_skipped;
      progress->generated = generated;
    }
  };
  const auto resident_it = find_resident(request_id);
  if (resident_it != resident_.end()) {
    const std::int32_t slot = *resident_it;
    resident_.erase(resident_it);
    if (!slot_prefilling(slot)) decoder_leave(slot);
    kv_cache_->invalidate_blocks(request_id);
    admit_blocked_ = false;  // invalidation freed device blocks
    fill(pool_.request[slot], pool_.prefilled[slot],
         pool_.prefix_skipped[slot], pool_.generated[slot]);
    pool_.release(slot);
    return true;
  }
  const auto swapped_it = std::find_if(
      swapped_.begin(), swapped_.end(),
      [request_id](const Sequence& sequence) {
        return sequence.request.id == request_id;
      });
  if (swapped_it == swapped_.end()) return false;
  // Swapped-out victim: its KV lives in the host pool; invalidate_blocks
  // releases those host bytes so the pool reconciles.
  const Sequence victim = *swapped_it;
  swapped_.erase(swapped_it);
  kv_cache_->invalidate_blocks(request_id);
  admit_blocked_ = false;
  fill(victim.request, victim.prefilled, victim.prefix_skipped,
       victim.generated);
  return true;
}

void ContinuousBatchScheduler::requeue_after_fault(const Request& request,
                                                   bool emitted_first_token) {
  if (emitted_first_token) {
    // TTFT already streamed: resume with preempt seniority (FIFO front,
    // EDF shed-exempt) exactly like a recompute-preemption victim.
    admission_->on_preempt_requeue(request, total_steps_);
  } else {
    admission_->on_enqueue(request, total_steps_);
  }
  admit_blocked_ = false;
}

bool ContinuousBatchScheduler::restore_resident_from_host(
    std::int64_t request_id, Bytes* bytes) {
  const auto it = find_resident(request_id);
  if (it == resident_.end()) return false;
  if (!kv_cache_->restore_from_host(request_id)) return false;
  admit_blocked_ = false;
  if (bytes != nullptr) {
    *bytes = computed_kv_bytes(pool_.prefilled[*it], pool_.generated[*it]);
  }
  return true;
}

void ContinuousBatchScheduler::set_degraded(bool degraded,
                                            int degraded_max_batch) {
  degraded_ = degraded;
  degraded_max_batch_ = degraded ? degraded_max_batch : 0;
  admission_->set_degraded(degraded);
  admit_blocked_ = false;  // effective_max_batch may have changed
}

AdmissionContext ContinuousBatchScheduler::admission_context() const {
  AdmissionContext context;
  context.free_batch_slots =
      effective_max_batch() - static_cast<std::int64_t>(resident_.size());
  context.free_kv_bytes = kv_cache_->capacity() - kv_cache_->used();
  context.bytes_per_token = kv_cache_->bytes_per_token();
  context.device_empty = resident_.empty();
  context.now = now_;
  context.step = total_steps_;
  return context;
}

void ContinuousBatchScheduler::build_prefill_step(StepRecord* record) {
  record->kind = StepRecord::Kind::kPrefill;
  // Prefill progress mutates prefix-cache state (note_prefilled marks
  // shared blocks computed) and can finish sequences — both can change a
  // memoized head-of-line probe's outcome.
  admit_blocked_ = false;
  record->chunk_lens.reserve(config_.max_prefill_batch);
  record->prev_lens.reserve(config_.max_prefill_batch);
  record->kv_lens.reserve(config_.max_prefill_batch);
  std::int64_t budget = config_.prefill_chunk_tokens > 0
                            ? config_.prefill_chunk_tokens
                            : std::numeric_limits<std::int64_t>::max();
  bool any_finished = false;
  for (const std::int32_t slot : resident_) {  // admission order
    if (!slot_prefilling(slot)) continue;
    if (record->chunk_lens.size() >=
        static_cast<std::size_t>(config_.max_prefill_batch)) {
      break;
    }
    const std::int64_t prefilled = pool_.prefilled[slot];
    const std::int64_t remaining = pool_.prompt_len[slot] - prefilled;
    // Stop rather than hand a participant a sub-bucket leftover of the
    // shared budget: every non-final chunk stays >= seqlen_bucket, so it
    // advances its sequence's cost bucket (a final chunk may be smaller —
    // its bucket was already paid for by telescoping).
    if (budget < std::min(remaining, config_.seqlen_bucket)) break;
    const std::int64_t chunk = std::min(remaining, budget);
    // A prefix-hit sequence's FIRST chunk already starts at a nonzero KV
    // offset (prev = prefix_skipped); only later chunks mean the prompt
    // was actually split across steps.
    record->prev_lens.push_back(prefilled);
    record->chunk_lens.push_back(chunk);
    record->kv_lens.push_back(prefilled + chunk);
    if (trace_) {
      trace_->on_prefill_chunk(pool_.request[slot].id, prefilled, chunk);
    }
    if (prefilled > pool_.prefix_skipped[slot] || chunk < remaining) {
      record->chunked = true;
    }
    pool_.prefilled[slot] = prefilled + chunk;
    kv_cache_->note_prefilled_slot(pool_.kv_slot[slot], prefilled + chunk);
    budget -= chunk;
    if (!slot_prefilling(slot)) {
      // Prompt complete: this step emits the sequence's first token.
      record->first_token_ids.push_back(pool_.request[slot].id);
      pool_.generated[slot] = 1;
      if (pool_.generated[slot] >= pool_.output_len[slot]) {
        retire(slot, record);
        any_finished = true;
      } else {
        decoder_enter(slot);
      }
    }
  }
  record->batch = static_cast<std::int64_t>(record->chunk_lens.size());
  CIMTPU_CHECK(record->batch >= 1);
  if (any_finished) {
    // Single compaction pass: the only residents with a completed output
    // are the ones that finished in the loop above (decoders always leave
    // the moment they finish), so the predicate needs no finished-id list.
    // Compaction moves slot ids and recycles the finished slots in place.
    std::size_t write = 0;
    for (std::size_t read = 0; read < resident_.size(); ++read) {
      const std::int32_t slot = resident_[read];
      if (!slot_prefilling(slot) &&
          pool_.generated[slot] >= pool_.output_len[slot]) {
        pool_.release(slot);
      } else {
        resident_[write++] = slot;
      }
    }
    resident_.resize(write);
  }
  if (record->chunked) counters_.chunked_prefill_steps += 1;
  last_step_prefill_ = true;
}

bool ContinuousBatchScheduler::build_decode_step(StepRecord* record) {
  record->kind = StepRecord::Kind::kDecode;

  // Growth pressure: make room for every KV BLOCK the continuing decode
  // participants must allocate this step (decoders mid-block need
  // nothing; at block size 1 every growing decoder needs one).  The
  // pending-growth block count is tracked incrementally, so each pressure
  // check is O(1) instead of a scan over all residents.  The manager owns
  // victim selection; the mechanism depends on the policy — swap victims
  // move to the host pool with their progress intact, recompute victims
  // re-queue from scratch.  kSwapToHost falls back to recompute when the
  // host pool is full.
  const bool manage_growth = kv_cache_->policy() != EvictionPolicy::kNone;
  if (manage_growth) {
    for (;;) {
      if (kv_cache_->fits_blocks(pending_growth_blocks_)) break;
      CIMTPU_CONFIG_CHECK(resident_.size() > 1,
                          "request " << pool_.request[resident_.front()].id
                                     << " outgrew the whole KV budget");
      const std::int64_t victim_id =
          kv_cache_->pick_eviction_victim(/*protect=*/-1);
      const auto victim_it = find_resident(victim_id);
      CIMTPU_CHECK(victim_it != resident_.end());
      const std::int32_t slot = *victim_it;
      resident_.erase(victim_it);
      if (!slot_prefilling(slot)) decoder_leave(slot);
      if (kv_cache_->policy() == EvictionPolicy::kSwapToHost &&
          kv_cache_->try_swap_out(victim_id)) {
        const Bytes bytes =
            computed_kv_bytes(pool_.prefilled[slot], pool_.generated[slot]);
        // Progress survives the swap: snapshot the slot into the cold deque,
        // including the host-pool token count the swap-in watermark reads.
        swapped_.push_back(Sequence{pool_.request[slot], pool_.prefilled[slot],
                                    pool_.generated[slot],
                                    pool_.prefix_skipped[slot],
                                    kv_cache_->swapped_tokens(victim_id)});
        record->swapped_out_ids.push_back(victim_id);
        record->swap_bytes += bytes;
        counters_.preemptions_swap += 1;
        counters_.swap_out_bytes += bytes;
        if (trace_) trace_->on_swap_out(victim_id, bytes);
      } else {
        kv_cache_->release(victim_id);
        // The policy decides where a recompute victim waits (FIFO: front).
        admission_->on_preempt_requeue(pool_.request[slot], total_steps_);
        record->preempted_ids.push_back(victim_id);
        counters_.preemptions_recompute += 1;
        if (trace_) trace_->on_preempt(victim_id);
      }
      pool_.release(slot);
      admit_blocked_ = false;  // eviction freed device blocks
    }
  }

  // Every resident decoder participates at its pre-advance KV length; the
  // incremental histogram IS that grouping, copied out before mutation.
  record->kv_lens.reserve(static_cast<std::size_t>(resident_decoders_));
  record->decode_groups.assign(decode_kv_histogram_.begin(),
                               decode_kv_histogram_.end());

  // Advance decoders in place: a single compaction pass (two-pointer) drops
  // finished slots — moving 4-byte slot ids, never sequence payloads.
  //
  // Bulk growth (kv_cache_manager.h): at block size 1, when the device has
  // outright room for resident_decoders_ more blocks (an upper bound on
  // this step's grows — finishers release instead), no per-decoder grow
  // can fail or reclaim, so each grow is a two-field entry update and the
  // global accounting is committed once after the loop.  Otherwise (block
  // sizes > 1, kNone, or a near-full device) each grow is checked and may
  // reclaim cached prefix blocks, which can change a memoized head-of-line
  // probe's outcome — so the memo is dropped outright.
  const bool bulk =
      manage_growth && kv_cache_->can_bulk_grow(resident_decoders_);
  if (!bulk) admit_blocked_ = false;
  std::int64_t grows = 0;
  // Summed in a local: the loop's int64 stores into the pool may alias the
  // member, which would otherwise round-trip through memory per decoder.
  std::int64_t pending_delta = 0;
  std::size_t write = 0;
  for (std::size_t read = 0; read < resident_.size(); ++read) {
    const std::int32_t slot = resident_[read];
    if (slot_prefilling(slot)) {
      // Spectator: prefill continues elsewhere.
      resident_[write++] = slot;
      continue;
    }
    // KV length this step attends over: prompt plus tokens generated so far.
    const std::int64_t kv_len =
        pool_.prompt_len[slot] + pool_.generated[slot];
    record->kv_lens.push_back(kv_len);
    // This decoder's pre-advance pending-growth contribution (0 for a
    // finishing decoder — its growth check looked one token ahead) is
    // consumed by this advance; a continuing decoder re-derives its
    // contribution for the NEXT step after the grow.  Under bulk growth
    // (block size 1) a continuing decoder's contribution was 1 and stays 1
    // unless the advance leaves it one token from finishing, so that branch
    // skips both growth_blocks probes, which measurably slow the hot loop.
    if (!bulk) pending_delta -= growth_blocks(slot);
    if (++pool_.generated[slot] >= pool_.output_len[slot]) {
      retire(slot, record);
      decoder_leave(slot);
      pool_.release(slot);
      continue;
    }
    if (bulk) {
      kv_cache_->grow_slot_unit_nocheck(pool_.kv_slot[slot]);
      ++grows;
      if (!sequence_grows(slot)) --pending_delta;
    } else {
      if (manage_growth) {
        const bool grew = kv_cache_->try_grow_slot(pool_.kv_slot[slot], 1);
        CIMTPU_CHECK(grew);  // pre-step eviction guaranteed room
      }
      pending_delta += growth_blocks(slot);
    }
    // The cached bucket is kv_len rounded up, so the next token spills past
    // it iff kv_len == bucket.
    if (kv_len == pool_.bucket[slot]) cross_bucket(slot);
    resident_[write++] = slot;
  }
  resident_.resize(write);
  pending_growth_blocks_ += pending_delta;
  if (bulk) kv_cache_->commit_bulk_growth(grows);
  record->batch = static_cast<std::int64_t>(record->kv_lens.size());
  if (record->batch == 0) {
    record->decode_groups.clear();
    return false;  // pressure evicted every decoder
  }
  last_step_prefill_ = false;
  return true;
}

bool ContinuousBatchScheduler::next_step(StepRecord* record) {
  CIMTPU_CHECK(record != nullptr);
  record->clear();
  if (idle()) return false;

  swap_in_and_admit(record);
  drain_shed(record);

  if (resident_.empty()) {
    CIMTPU_CHECK(swapped_.empty());
    if (admission_->empty()) {
      // Admission control shed every waiting request (a deadline-driven
      // policy can empty the engine): no step runs.  The sheds are in
      // record->shed_ids; the driver advances the clock and re-enters.
      return false;
    }
    // A swapped sequence always fits an empty device (it fit before it was
    // swapped out), so reaching here means the policy's chosen candidate
    // can never be admitted: the request is unservable at this capacity.
    // (Policies may not throttle an empty device, so select() is non-null.)
    const Request* head = admission_->select(admission_context());
    CIMTPU_CHECK(head != nullptr);
    CIMTPU_CONFIG_CHECK(
        false, "request " << head->id << " needs more KV ("
                          << format_bytes(kv_cache_->bytes_per_token() *
                                          static_cast<double>(
                                              admission_reserve_tokens(*head)))
                          << " to admit) than the budget "
                          << format_bytes(kv_cache_->capacity()));
  }

  // The decoder count is tracked incrementally; prefill work exists iff
  // some resident is not a decoder.
  const bool any_decoding = resident_decoders_ > 0;
  const bool any_prefilling =
      static_cast<std::int64_t>(resident_.size()) > resident_decoders_;

  // Step-kind choice: prefill-priority without chunking (a new prompt runs
  // whole the step it is admitted); strict prefill/decode alternation with
  // chunking, so decoders advance at least every other step while a long
  // prompt streams through in chunks.
  bool do_prefill;
  if (!any_prefilling) {
    do_prefill = false;
  } else if (!any_decoding) {
    do_prefill = true;
  } else if (config_.prefill_chunk_tokens > 0) {
    do_prefill = !last_step_prefill_;
  } else {
    do_prefill = true;
  }

  if (do_prefill) {
    build_prefill_step(record);
  } else if (!build_decode_step(record)) {
    // KV pressure swept every decode participant out; the survivors are
    // all prefilling, so run their chunk step instead.
    build_prefill_step(record);
  }
  ++total_steps_;
  return true;
}

std::optional<StepRecord> ContinuousBatchScheduler::next_step() {
  StepRecord record;
  if (!next_step(&record)) return std::nullopt;
  return record;
}

std::int64_t ContinuousBatchScheduler::quiet_decode_steps() const {
  // With every resident a decoder, next_step builds a decode step.
  if (trace_ != nullptr || config_.kv_block_tokens != 1 ||
      resident_decoders_ == 0 ||
      resident_decoders_ != static_cast<std::int64_t>(resident_.size())) {
    return 0;
  }
  // Waiting or swapped work must stay out for the whole run: next_step
  // must swap in, admit and shed nothing.  Shedding is time-driven, so a
  // shedding policy never runs quiet past a queue.  Otherwise the work is
  // locked out while the batch is full, while the swapped front fails the
  // swap-in watermark (which also holds back every admission), or while
  // the head-of-line memo stands with nothing swapped.  During a run no
  // decoder finishes, free blocks only shrink and the decoder count stays
  // put, and only an enqueue (which ends the run) clears the memo: each
  // lock holds until the run ends.  (Under kNone no decode step grows in
  // bulk, so every decode step clears the memo and it is never set here.)
  if (!swapped_.empty() || !admission_->empty()) {
    if (may_shed_) return 0;
    const bool locked_out =
        resident_.size() >= static_cast<std::size_t>(effective_max_batch()) ||
        (swapped_.empty() ? admit_blocked_ : !swap_in_fits(swapped_.front()));
    if (!locked_out) return 0;
  }
  std::int64_t steps = std::numeric_limits<std::int64_t>::max();
  if (kv_cache_->policy() != EvictionPolicy::kNone) {
    // Each step grows every decoder by one block.  Keeping all of them
    // inside the free (never cached) blocks means no step evicts, reclaims
    // a cached prefix block, or leaves the bulk-growth path.
    steps = (kv_cache_->capacity_blocks() - kv_cache_->occupied_blocks()) /
            resident_decoders_;
  }
  for (const std::int32_t slot : resident_) {
    const std::int64_t kv_len = pool_.prompt_len[slot] + pool_.generated[slot];
    // The step that emits the last token finishes the decoder.  The step
    // that starts at kv_len == bucket still attends inside the bucket and
    // carries today's grouping — it belongs to the run and moves the
    // decoder to the next bucket after it.
    steps = std::min(steps, pool_.output_len[slot] - pool_.generated[slot] - 1);
    steps = std::min(steps, pool_.bucket[slot] - kv_len + 1);
  }
  return std::max<std::int64_t>(steps, 0);
}

void ContinuousBatchScheduler::advance_quiet_decode(std::int64_t steps) {
  CIMTPU_CHECK(steps >= 0 && steps <= quiet_decode_steps());
  if (steps == 0) return;
  // No decoder finishes, so resident_ stays as it is.  A decoder whose run
  // ended on its crossing step (kv_len now one past its bucket) moves to
  // the next bucket, as build_decode_step moves it.  At block size 1 a
  // decoder's pending-growth block drops out exactly when it is left one
  // token from finishing (its last step finishes instead of growing).
  const bool grow = kv_cache_->policy() != EvictionPolicy::kNone;
  for (const std::int32_t slot : resident_) {
    pool_.generated[slot] += steps;
    if (grow) kv_cache_->grow_slot_unit_nocheck(pool_.kv_slot[slot], steps);
    if (!sequence_grows(slot)) --pending_growth_blocks_;
    if (pool_.prompt_len[slot] + pool_.generated[slot] > pool_.bucket[slot]) {
      cross_bucket(slot);
    }
  }
  if (grow) kv_cache_->commit_bulk_growth(steps * resident_decoders_);
  total_steps_ += steps;
  last_step_prefill_ = false;
}

}  // namespace cimtpu::serving
