#include "serving/kv_cache_manager.h"

#include <algorithm>
#include <cmath>

#include "common/status.h"
#include "serving/obs_registry.h"

namespace cimtpu::serving {

std::string eviction_policy_name(EvictionPolicy policy) {
  switch (policy) {
    case EvictionPolicy::kPreemptNewest: return "preempt_newest";
    case EvictionPolicy::kSwapToHost: return "swap_to_host";
    case EvictionPolicy::kPriorityVictim: return "priority_victim";
  }
  return "?";
}

KvCacheManager::KvCacheManager(Bytes capacity, Bytes bytes_per_token,
                               EvictionPolicy policy, Bytes host_capacity,
                               std::int64_t block_tokens,
                               bool enable_prefix_cache)
    : capacity_(capacity),
      bytes_per_token_(bytes_per_token),
      policy_(policy),
      host_capacity_(host_capacity),
      block_tokens_(block_tokens),
      enable_prefix_cache_(enable_prefix_cache) {
  CIMTPU_CONFIG_CHECK(capacity > 0, "KV budget must be positive, got "
                                        << format_bytes(capacity));
  CIMTPU_CONFIG_CHECK(bytes_per_token > 0,
                      "KV token bytes must be positive, got "
                          << format_bytes(bytes_per_token));
  CIMTPU_CONFIG_CHECK(host_capacity >= 0,
                      "host pool capacity must be >= 0, got "
                          << format_bytes(host_capacity));
  CIMTPU_CONFIG_CHECK(block_tokens >= 1,
                      "kv_block_tokens must be >= 1, got " << block_tokens);
  block_bytes_ = bytes_per_token_ * static_cast<double>(block_tokens_);
  capacity_blocks_ = static_cast<std::int64_t>(capacity_ / block_bytes_);
  host_capacity_blocks_ =
      static_cast<std::int64_t>(host_capacity_ / block_bytes_);
  CIMTPU_CONFIG_CHECK(capacity_blocks_ >= 1,
                      "KV budget " << format_bytes(capacity_)
                                   << " smaller than one "
                                   << block_tokens_ << "-token block ("
                                   << format_bytes(block_bytes_) << ")");
  phase_count_.assign(static_cast<std::size_t>(block_tokens_), 0);
}

Bytes KvCacheManager::hbm_kv_budget(const models::TransformerConfig& model,
                                    Bytes chip_hbm_capacity, int chips) {
  CIMTPU_CONFIG_CHECK(chips >= 1, "KV budget needs >= 1 chip");
  CIMTPU_CONFIG_CHECK(model.num_layers >= chips,
                      "fewer layers than pipeline stages");
  // The bottleneck stage holds ceil(layers/chips) layers: its weights and
  // its per-layer share of every cached token must fit ONE chip's HBM.
  // The admissible whole-model KV is the bottleneck's headroom scaled by
  // the inverse of its layer share (for even splits this reduces to
  // chips * HBM - weights).
  const std::int64_t stage_layers =
      ceil_div<std::int64_t>(model.num_layers, chips);
  const Bytes stage_weights =
      model.layer_weight_bytes() * static_cast<double>(stage_layers);
  const Bytes stage_free = chip_hbm_capacity - stage_weights;
  CIMTPU_CONFIG_CHECK(stage_free > 0,
                      "model '" << model.name << "' bottleneck stage ("
                                << stage_layers << " layers, "
                                << format_bytes(stage_weights)
                                << ") exceeds one chip's HBM over " << chips
                                << " chip(s)");
  return stage_free * static_cast<double>(model.num_layers) /
         static_cast<double>(stage_layers);
}

Bytes KvCacheManager::token_bytes(const models::TransformerConfig& model) {
  return models::kv_cache_bytes_per_layer(model, /*batch=*/1, /*kv_len=*/1) *
         static_cast<double>(model.num_layers);
}

void KvCacheManager::reclaim_cached(std::int64_t blocks) {
  cached_blocks_reclaimed_total_ += blocks;
  for (std::int64_t i = 0; i < blocks; ++i) {
    CIMTPU_CHECK(lru_head_ >= 0);
    const std::int64_t block_id = lru_head_;
    lru_unlink(block_id);
    free_shared_block(block_id);
  }
}

std::int64_t KvCacheManager::new_shared_block(std::int64_t prefix_id,
                                              PrefixChain* chain,
                                              std::int64_t k) {
  std::int64_t block_id;
  if (!free_block_ids_.empty()) {
    block_id = free_block_ids_.back();
    free_block_ids_.pop_back();
  } else {
    block_id = static_cast<std::int64_t>(block_slab_.size());
    block_slab_.emplace_back();
  }
  SharedBlock& block = block_slab_[static_cast<std::size_t>(block_id)];
  block.ref = 1;
  block.prefix_id = prefix_id;
  block.block_index = k;
  block.computed = false;
  chain->blocks[static_cast<std::size_t>(k)] = block_id;
  ++chain->live;
  ++live_shared_blocks_;
  return block_id;
}

void KvCacheManager::free_shared_block(std::int64_t block_id) {
  SharedBlock& block = block_slab_[static_cast<std::size_t>(block_id)];
  CIMTPU_CHECK(block.prefix_id >= 0 && block.ref == 0);
  const auto chain = prefix_chains_.find(block.prefix_id);
  CIMTPU_CHECK(chain != prefix_chains_.end());
  chain->second.blocks[static_cast<std::size_t>(block.block_index)] = -1;
  --chain->second.live;
  erase_chain_if_empty(chain);
  block = SharedBlock{};
  free_block_ids_.push_back(block_id);
  --live_shared_blocks_;
}

void KvCacheManager::lru_append(std::int64_t block_id) {
  SharedBlock& block = block_slab_[static_cast<std::size_t>(block_id)];
  block.lru_seq = next_lru_seq_++;
  block.lru_prev = lru_tail_;
  block.lru_next = -1;
  if (lru_tail_ >= 0) {
    block_slab_[static_cast<std::size_t>(lru_tail_)].lru_next = block_id;
  } else {
    lru_head_ = block_id;
  }
  lru_tail_ = block_id;
  ++cached_blocks_;
}

void KvCacheManager::lru_unlink(std::int64_t block_id) {
  SharedBlock& block = block_slab_[static_cast<std::size_t>(block_id)];
  if (block.lru_prev >= 0) {
    block_slab_[static_cast<std::size_t>(block.lru_prev)].lru_next =
        block.lru_next;
  } else {
    lru_head_ = block.lru_next;
  }
  if (block.lru_next >= 0) {
    block_slab_[static_cast<std::size_t>(block.lru_next)].lru_prev =
        block.lru_prev;
  } else {
    lru_tail_ = block.lru_prev;
  }
  block.lru_prev = block.lru_next = -1;
  --cached_blocks_;
}

void KvCacheManager::drop_tail_donor(Entry* entry) {
  if (!entry->tail_donor) return;
  entry->tail_donor = false;
  const auto chain = prefix_chains_.find(entry->prefix_id);
  CIMTPU_CHECK(chain != prefix_chains_.end());
  chain->second.tail_donor = -1;
  erase_chain_if_empty(chain);
}

void KvCacheManager::erase_chain_if_empty(
    std::unordered_map<std::int64_t, PrefixChain>::iterator chain) {
  if (chain->second.live == 0 && chain->second.tail_donor < 0) {
    prefix_chains_.erase(chain);
  }
}

std::int32_t KvCacheManager::find_slot(std::int64_t request_id) const {
  if (request_id < 0) return -1;  // free slots carry id -1
  for (std::size_t slot = 0; slot < entry_slots_.size(); ++slot) {
    if (entry_slots_[slot].id == request_id) {
      return static_cast<std::int32_t>(slot);
    }
  }
  return -1;
}

std::int32_t KvCacheManager::acquire_slot(std::int64_t request_id,
                                          std::int64_t admit_seq) {
  std::int32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    // Keep the recycled slot's `shared` capacity: callers fill it after
    // acquiring, so steady-state admissions allocate nothing.
    Entry& recycled = slot_entry(slot);
    std::vector<std::int64_t> shared = std::move(recycled.shared);
    recycled = Entry{};
    recycled.shared = std::move(shared);
  } else {
    slot = static_cast<std::int32_t>(entry_slots_.size());
    entry_slots_.emplace_back();
  }
  Entry& entry = slot_entry(slot);
  entry.id = request_id;
  // Admit sequence numbers only grow, so the newest admission (or swap-in)
  // always belongs at the tail.
  entry.admit_seq = admit_seq;
  entry.older = newest_slot_;
  if (newest_slot_ >= 0) {
    slot_entry(newest_slot_).newer = slot;
  } else {
    oldest_slot_ = slot;
  }
  newest_slot_ = slot;
  return slot;
}

void KvCacheManager::recycle_slot(std::int32_t slot) {
  Entry& entry = slot_entry(slot);
  if (entry.older >= 0) {
    slot_entry(entry.older).newer = entry.newer;
  } else {
    oldest_slot_ = entry.newer;
  }
  if (entry.newer >= 0) {
    slot_entry(entry.newer).older = entry.older;
  } else {
    newest_slot_ = entry.older;
  }
  entry.older = entry.newer = -1;
  entry.id = -1;
  entry.shared.clear();
  free_slots_.push_back(slot);
}

void KvCacheManager::unref_shared(std::int64_t block_id) {
  SharedBlock& block = block_slab_[static_cast<std::size_t>(block_id)];
  CIMTPU_CHECK(block.prefix_id >= 0 && block.ref >= 1);
  if (--block.ref > 0) return;
  if (block.computed) {
    // Fully released but computed: stays cached (and hittable) until
    // allocation pressure reclaims it, LRU order.
    lru_append(block_id);
  } else {
    // The registrant died before prefilling it; the contents never
    // existed, so the block (and its chain entry) is useless.
    free_shared_block(block_id);
  }
}

std::optional<std::int32_t> KvCacheManager::try_admit(
    std::int64_t request_id, std::int64_t tokens, std::int64_t priority,
    std::int64_t prefix_id, std::int64_t prefix_len, std::int64_t prompt_len,
    AdmitOutcome* outcome) {
  CIMTPU_CHECK(request_id >= 0);  // free slots carry id -1
  CIMTPU_CHECK(tokens >= 0);
  CIMTPU_CHECK(prefix_len >= 0 && prefix_len <= std::max<std::int64_t>(
                                                    prompt_len, 0));
  if (outcome != nullptr) *outcome = AdmitOutcome{};

  const std::int64_t total_blocks = blocks_for_tokens(tokens);
  // Eligibility requires the reservation to cover the whole prompt (every
  // scheduler reserve does: prompt + 1 at minimum), so shared and
  // registered prefix blocks always lie within the entry's own mapping.
  const bool prefix_eligible = enable_prefix_cache_ &&
                               !prefix_admission_paused_ && prefix_id >= 0 &&
                               prefix_len > 0 && prompt_len > 1 &&
                               tokens >= prompt_len;
  const std::int64_t full_blocks =
      prefix_eligible ? prefix_len / block_tokens_ : 0;
  // O(1) rejection: hits save at most `full_blocks` allocations and at
  // most every cached block can be reclaimed, so a probe past this bound
  // also fails the exact check below.
  if (total_blocks - full_blocks > free_blocks() + cached_block_count()) {
    return std::nullopt;
  }

  // --- Plan the prefix reuse: one lookup, one pass, nothing mutated ---------
  PrefixChain* chain = nullptr;
  std::int64_t shared_count = 0;  // leading computed full blocks (the hits)
  std::int64_t cached_among_hits = 0;
  std::int64_t hit_tokens = 0;
  std::int64_t cow_blocks = 0;
  if (prefix_eligible) {
    const auto found = prefix_chains_.find(prefix_id);
    if (found != prefix_chains_.end()) {
      chain = &found->second;
      const std::int64_t known = std::min<std::int64_t>(
          full_blocks, static_cast<std::int64_t>(chain->blocks.size()));
      for (; shared_count < known; ++shared_count) {
        const std::int64_t block_id =
            chain->blocks[static_cast<std::size_t>(shared_count)];
        // Stop at a gap, or at a block a concurrent request is still
        // prefilling (its contents don't exist yet).
        if (block_id < 0) break;
        const SharedBlock& block =
            block_slab_[static_cast<std::size_t>(block_id)];
        if (!block.computed) break;
        if (block.ref == 0) ++cached_among_hits;
      }
      // Partial tail: prefix tokens past the last full block live inside
      // a block that also holds post-prefix content.  If a live donor with
      // the same prefix has computed through prefix_len, the sharer reuses
      // those tokens via a private COPY of the block (copy-on-write: the
      // sharer's own content diverges inside it).  Donors leave the chain
      // as they leave the device, so a recorded donor is resident.
      if (shared_count == full_blocks && prefix_len % block_tokens_ != 0 &&
          chain->tail_donor >= 0 &&
          slot_entry(chain->tail_donor).computed_tokens >= prefix_len) {
        cow_blocks = 1;
        hit_tokens = prefix_len;
      } else {
        hit_tokens = shared_count * block_tokens_;
      }
    }
    // The final prompt token is always recomputed (real engines need its
    // logits), so prefill can never be skipped entirely.  Its KV already
    // lives in a shared block when the cap bites, so no extra allocation.
    hit_tokens = std::min(hit_tokens, prompt_len - 1);
  }

  // --- Capacity check (reclaim-aware), then commit ---------------------------
  const std::int64_t new_blocks = total_blocks - shared_count;
  CIMTPU_CHECK(new_blocks >= cow_blocks);
  const std::int64_t free_now = free_blocks();
  const std::int64_t reclaimable = cached_block_count() - cached_among_hits;
  if (new_blocks > free_now + reclaimable) return std::nullopt;

  CIMTPU_CHECK_MSG(find_slot(request_id) < 0,
                   "request " << request_id << " is already resident");
  CIMTPU_CHECK_MSG(
      host_entries_.empty() || host_entries_.count(request_id) == 0,
      "request " << request_id << " is swapped out");
  const std::int32_t slot = acquire_slot(request_id, next_seq_++);
  Entry& entry = slot_entry(slot);
  // Reference the hit blocks first (pulls cached ones off the LRU so the
  // reclaim below can never steal a block we are about to share).
  for (std::int64_t k = 0; k < shared_count; ++k) {
    const std::int64_t block_id = chain->blocks[static_cast<std::size_t>(k)];
    SharedBlock& block = block_slab_[static_cast<std::size_t>(block_id)];
    if (block.ref == 0) lru_unlink(block_id);
    ++block.ref;
    entry.shared.push_back(block_id);
  }
  if (new_blocks > free_now) {
    reclaim_cached(new_blocks - free_now);
    // With no hit to pin it, the chain may have lost its last block to
    // the reclaim and been erased.
    if (shared_count == 0) chain = nullptr;
  }

  // --- Register missed full prefix blocks so later requests can share -------
  std::int64_t registered = 0;
  if (prefix_eligible) {
    if (chain == nullptr) chain = &prefix_chains_[prefix_id];
    if (static_cast<std::int64_t>(chain->blocks.size()) < full_blocks) {
      chain->blocks.resize(static_cast<std::size_t>(full_blocks), -1);
    }
    for (std::int64_t k = shared_count; k < full_blocks; ++k) {
      if (chain->blocks[static_cast<std::size_t>(k)] >= 0) continue;  // a
      // concurrent registrant got here first; our copy stays private.
      // A registered block is always a MISS (k >= shared_count), so its
      // contents cannot exist yet: note_prefilled_slot flips it computed
      // once this entry's prefill passes the block's upper boundary.
      entry.shared.push_back(new_shared_block(prefix_id, chain, k));
      ++registered;
    }
    // Volunteer as the partial-tail donor so later same-prefix admissions
    // can copy the tail's prefix tokens out of this entry's block.
    if (prefix_len % block_tokens_ != 0 && chain->tail_donor < 0) {
      chain->tail_donor = slot;
      entry.tail_donor = true;
    }
  }

  entry.tokens = tokens;
  entry.priority = priority;
  entry.computed_tokens = hit_tokens;
  entry.prefix_id = prefix_eligible ? prefix_id : -1;
  entry.prefix_len = prefix_eligible ? prefix_len : 0;
  entry.pending_blocks = registered;
  entry.private_blocks = new_blocks - registered;
  CIMTPU_CHECK(entry.private_blocks >= 0);
  private_used_ += entry.private_blocks;
  blocks_allocated_total_ += new_blocks;
  mapped_tokens_ += entry.tokens;
  entry_block_tokens_ += entry_blocks(entry) * block_tokens_;

  if (outcome != nullptr) {
    outcome->lookup_tokens =
        prefix_eligible ? std::min(prefix_len, prompt_len - 1) : 0;
    outcome->prefix_hit_tokens = hit_tokens;
    outcome->shared_blocks = shared_count;
    outcome->cow_blocks = cow_blocks;
  }
  return slot;
}

std::int64_t KvCacheManager::advance_blocks_admitted_before(
    std::int32_t slot) const {
  std::int64_t blocks = 0;
  for (std::int32_t older = oldest_slot_; older != slot;
       older = slot_entry(older).newer) {
    CIMTPU_CHECK(older >= 0);  // `slot` is on the admit-order list
    const Entry& entry = slot_entry(older);
    if (entry.advancing && entry.phase == clock_phase_) ++blocks;
  }
  return blocks;
}

std::int64_t KvCacheManager::grow_advancing(std::int64_t blocks) {
  CIMTPU_CHECK(blocks >= 0 &&
               advance_grown_ + blocks <= advance_growth_blocks());
  advance_grown_ += blocks;
  return allocate_growth(blocks);
}

std::int64_t KvCacheManager::leave_device(std::int32_t slot) {
  Entry& entry = slot_entry(slot);
  CIMTPU_CHECK(entry.id >= 0);
  if (entry.advancing) end_advance(slot);
  const std::int64_t blocks = entry_blocks(entry);
  for (std::int64_t block_id : entry.shared) unref_shared(block_id);
  private_used_ -= entry.private_blocks;
  mapped_tokens_ -= entry.tokens;
  entry_block_tokens_ -= blocks * block_tokens_;
  drop_tail_donor(&entry);
  return blocks;
}

void KvCacheManager::release_slot(std::int32_t slot) {
  leave_device(slot);
  recycle_slot(slot);
}

bool KvCacheManager::try_swap_out_slot(std::int32_t slot) {
  const Entry& entry = slot_entry(slot);
  CIMTPU_CHECK(entry.id >= 0);
  const std::int64_t blocks = entry_blocks(entry);
  if (host_used_blocks_ + blocks > host_capacity_blocks_) return false;
  // The host copy is whole and private: shared prefix blocks are
  // privatized on the way out (their device copies just lose a reference),
  // and re-entry takes no part in the prefix index.
  leave_device(slot);
  Entry host_entry;
  host_entry.id = entry.id;
  host_entry.tokens = entry.tokens;
  host_entry.private_blocks = blocks;
  host_entry.priority = entry.priority;
  host_entry.computed_tokens = entry.computed_tokens;
  host_used_blocks_ += blocks;
  host_entries_[entry.id] = std::move(host_entry);
  recycle_slot(slot);
  return true;
}

std::optional<std::int32_t> KvCacheManager::try_swap_in(
    std::int64_t request_id) {
  const auto it = host_entries_.find(request_id);
  CIMTPU_CHECK(it != host_entries_.end());
  const Entry& host_entry = it->second;
  const std::int64_t blocks = entry_blocks(host_entry);
  if (!fits_blocks(blocks)) return std::nullopt;
  const std::int64_t free_now = free_blocks();
  if (blocks > free_now) reclaim_cached(blocks - free_now);
  // Re-entry counts as the newest admission.
  const std::int32_t slot = acquire_slot(request_id, next_seq_++);
  Entry& entry = slot_entry(slot);
  entry.tokens = host_entry.tokens;
  entry.private_blocks = blocks;
  entry.priority = host_entry.priority;
  entry.computed_tokens = host_entry.computed_tokens;
  private_used_ += blocks;
  blocks_allocated_total_ += blocks;
  mapped_tokens_ += entry.tokens;
  entry_block_tokens_ += blocks * block_tokens_;
  host_used_blocks_ -= blocks;
  host_entries_.erase(it);
  return slot;
}

void KvCacheManager::note_prefilled_slot(std::int32_t slot,
                                         std::int64_t computed_tokens) {
  Entry& entry = slot_entry(slot);
  entry.computed_tokens = std::min(
      std::max(entry.computed_tokens, computed_tokens), entry_tokens(entry));
  // The blocks this entry registered and has not yet computed close its
  // shared list in block order; each becomes hittable once the prefill
  // has passed its upper token boundary.
  while (entry.pending_blocks > 0) {
    const std::int64_t block_id = entry.shared[entry.shared.size() -
                                               static_cast<std::size_t>(
                                                   entry.pending_blocks)];
    SharedBlock& block = block_slab_[static_cast<std::size_t>(block_id)];
    if ((block.block_index + 1) * block_tokens_ > entry.computed_tokens) {
      return;
    }
    block.computed = true;
    --entry.pending_blocks;
  }
}

std::int64_t KvCacheManager::invalidate_slot(std::int32_t slot) {
  const std::int64_t blocks = leave_device(slot);
  recycle_slot(slot);
  blocks_invalidated_total_ += blocks;
  return blocks;
}

std::int64_t KvCacheManager::invalidate_blocks(std::int64_t request_id) {
  const std::int32_t slot = find_slot(request_id);
  if (slot >= 0) return invalidate_slot(slot);
  const auto host_it = host_entries_.find(request_id);
  if (host_it != host_entries_.end()) {
    const std::int64_t blocks = host_it->second.private_blocks;
    blocks_invalidated_total_ += blocks;
    host_used_blocks_ -= blocks;
    host_entries_.erase(host_it);
    return blocks;
  }
  return 0;
}

bool KvCacheManager::restore_from_host(std::int64_t request_id) {
  const std::int32_t slot = find_slot(request_id);
  if (slot < 0) return false;
  const std::int64_t blocks = entry_blocks(slot_entry(slot));
  // The shadow is a transient host-side checkpoint slot: it must fit
  // next to the blocks the swap pool currently holds.
  if (host_used_blocks_ + blocks > host_capacity_blocks_) return false;
  blocks_restored_total_ += blocks;
  return true;
}

std::int64_t KvCacheManager::drop_cached_blocks() {
  const std::int64_t dropped = cached_block_count();
  while (lru_head_ >= 0) {
    const std::int64_t block_id = lru_head_;
    lru_unlink(block_id);
    free_shared_block(block_id);
  }
  blocks_invalidated_total_ += dropped;
  return dropped;
}

std::int64_t KvCacheManager::swapped_tokens(std::int64_t request_id) const {
  auto it = host_entries_.find(request_id);
  return it == host_entries_.end() ? 0 : it->second.tokens;
}

KvCacheManager::Inspection KvCacheManager::inspect(
    std::int64_t request_id) const {
  Inspection view;
  const std::int32_t slot = find_slot(request_id);
  if (slot >= 0) {
    const Entry& entry = slot_entry(slot);
    view.resident = true;
    view.tokens = entry_tokens(entry);
    view.shared_blocks = static_cast<std::int64_t>(entry.shared.size());
    view.blocks = view.shared_blocks + entry_private_blocks(entry);
  }
  view.swapped = host_entries_.count(request_id) > 0;
  view.resident_entries =
      static_cast<std::int64_t>(entry_slots_.size() - free_slots_.size());
  view.swapped_entries = static_cast<std::int64_t>(host_entries_.size());
  view.host_used_blocks = host_used_blocks_;
  view.shared_block_ids = static_cast<std::int64_t>(block_slab_.size());
  return view;
}

std::int64_t KvCacheManager::pick_eviction_victim() const {
  if (policy_ == EvictionPolicy::kPreemptNewest ||
      policy_ == EvictionPolicy::kSwapToHost) {
    // Newest admission first: the admit-order list's tail.
    return newest_slot_ >= 0 ? slot_entry(newest_slot_).id : -1;
  }
  // kPriorityVictim.  Forward-progress guarantee: the oldest resident is
  // exempt.  Without it, the largest-KV tie-break livelocks under
  // recompute — the most-progressed low-priority sequence is always the
  // largest, so it is reset every pressure cycle and never finishes.  A
  // sole resident stays evictable.
  const std::int32_t exempt =
      oldest_slot_ >= 0 && slot_entry(oldest_slot_).newer >= 0 ? oldest_slot_
                                                                : -1;
  // Linear min-scan of the slot array with the VictimKey order: the
  // resident set is bounded by max batch, so this beats keeping a sorted
  // index current (which would charge two tree updates to every decoded
  // token).  The order is a strict total order (id tie-break), so the
  // minimum is unique and the scan order is immaterial.
  std::int64_t best_id = -1;
  VictimKey best{};
  for (std::size_t slot = 0; slot < entry_slots_.size(); ++slot) {
    const Entry& entry = entry_slots_[slot];
    if (entry.id < 0 || static_cast<std::int32_t>(slot) == exempt) continue;
    const VictimKey key{entry.priority, entry_tokens(entry), entry.admit_seq,
                        entry.id};
    if (best_id < 0 || key < best) {
      best = key;
      best_id = entry.id;
    }
  }
  return best_id;
}

bool KvCacheManager::audit() const {
  // --- Slot storage: live entries and the free list partition the slots ------
  std::vector<bool> listed_free(entry_slots_.size(), false);
  for (std::int32_t slot : free_slots_) {
    if (slot < 0 || static_cast<std::size_t>(slot) >= entry_slots_.size() ||
        slot_entry(slot).id != -1 ||
        listed_free[static_cast<std::size_t>(slot)]) {
      return false;
    }
    listed_free[static_cast<std::size_t>(slot)] = true;
  }
  std::vector<std::int64_t> live_ids;
  for (std::size_t slot = 0; slot < entry_slots_.size(); ++slot) {
    const Entry& entry = entry_slots_[slot];
    if (entry.id >= 0) {
      live_ids.push_back(entry.id);
    } else if (entry.id != -1 || !listed_free[slot]) {
      return false;  // a free slot missing from the free list
    }
  }
  // No two live entries share an id.
  std::sort(live_ids.begin(), live_ids.end());
  if (std::adjacent_find(live_ids.begin(), live_ids.end()) != live_ids.end()) {
    return false;
  }
  // --- Admit-order list: exactly the live entries, by admit_seq --------------
  std::int64_t linked = 0;
  std::int32_t prev_slot = -1;
  for (std::int32_t slot = oldest_slot_; slot >= 0;) {
    if (static_cast<std::size_t>(slot) >= entry_slots_.size() ||
        linked >= static_cast<std::int64_t>(live_ids.size())) {
      return false;  // out of range, or a cycle
    }
    const Entry& entry = slot_entry(slot);
    if (entry.id < 0 || entry.older != prev_slot) return false;
    if (prev_slot >= 0 && slot_entry(prev_slot).admit_seq >= entry.admit_seq) {
      return false;
    }
    ++linked;
    prev_slot = slot;
    slot = entry.newer;
  }
  // Every linked entry is live and distinct (strictly increasing
  // admit_seq), so the counts matching means the list holds them all.
  if (prev_slot != newest_slot_ ||
      linked != static_cast<std::int64_t>(live_ids.size())) {
    return false;
  }
  // --- Device entries: block math and rollups --------------------------------
  std::int64_t private_sum = 0;
  std::int64_t token_sum = 0;
  std::int64_t block_token_sum = 0;
  std::vector<std::int64_t> ref_recount(block_slab_.size(), 0);
  std::vector<std::int64_t> phase_recount(phase_count_.size(), 0);
  std::int64_t advancing_recount = 0;
  for (const Entry& entry : entry_slots_) {
    if (entry.id < 0) continue;
    const std::int64_t tokens = entry_tokens(entry);
    const std::int64_t private_blocks = entry_private_blocks(entry);
    if (tokens < 0 || private_blocks < 0) return false;
    if (entry.advancing) {
      // The phase is the clock phase at which the count is a multiple.
      if (entry.phase < 0 || entry.phase >= block_tokens_ ||
          (tokens + entry.phase - clock_phase_) % block_tokens_ != 0) {
        return false;
      }
      ++phase_recount[static_cast<std::size_t>(entry.phase)];
      ++advancing_recount;
    }
    if (entry_blocks(entry) !=
        static_cast<std::int64_t>(entry.shared.size()) + private_blocks) {
      return false;
    }
    private_sum += private_blocks;
    token_sum += tokens;
    block_token_sum += entry_blocks(entry) * block_tokens_;
    // The uncomputed blocks are exactly the last pending_blocks, each
    // referenced by this entry alone (a hit walk stops at them).
    if (entry.pending_blocks < 0 ||
        entry.pending_blocks > static_cast<std::int64_t>(entry.shared.size())) {
      return false;
    }
    const std::size_t first_pending =
        entry.shared.size() - static_cast<std::size_t>(entry.pending_blocks);
    for (std::size_t i = 0; i < entry.shared.size(); ++i) {
      const std::int64_t block_id = entry.shared[i];
      if (block_id < 0 ||
          static_cast<std::size_t>(block_id) >= block_slab_.size()) {
        return false;
      }
      const SharedBlock& block =
          block_slab_[static_cast<std::size_t>(block_id)];
      if (block.computed == (i >= first_pending)) return false;
      if (!block.computed && block.ref != 1) return false;
      ++ref_recount[static_cast<std::size_t>(block_id)];
    }
    // A tail donor is its chain's donor.
    if (entry.tail_donor) {
      const auto chain = prefix_chains_.find(entry.prefix_id);
      if (chain == prefix_chains_.end() ||
          chain->second.tail_donor < 0 ||
          slot_entry(chain->second.tail_donor).id != entry.id) {
        return false;
      }
    }
  }
  if (private_sum != private_used_ || token_sum != mapped_tokens_ ||
      block_token_sum != entry_block_tokens_) {
    return false;
  }
  if (phase_recount != phase_count_ || advancing_recount != advancing_count_ ||
      advance_grown_ != 0 ||
      clock_phase_ != advance_clock_ % block_tokens_) {
    return false;
  }
  // --- Block slab: live blocks and free ids partition it ---------------------
  std::int64_t free_recount = 0;
  for (std::int64_t block_id : free_block_ids_) {
    if (block_id < 0 ||
        static_cast<std::size_t>(block_id) >= block_slab_.size()) {
      return false;
    }
    const SharedBlock& block = block_slab_[static_cast<std::size_t>(block_id)];
    if (block.prefix_id != -1 || block.ref != 0) return false;
  }
  // --- Live blocks: refcounts and chain back-pointers ------------------------
  std::int64_t live_recount = 0;
  std::int64_t zero_ref_recount = 0;
  for (std::size_t block_id = 0; block_id < block_slab_.size(); ++block_id) {
    const SharedBlock& block = block_slab_[block_id];
    if (block.prefix_id < 0) {
      ++free_recount;
      if (ref_recount[block_id] != 0) return false;  // mapped a freed id
      continue;
    }
    ++live_recount;
    if (block.ref != ref_recount[block_id]) return false;
    if (block.ref == 0) {
      if (!block.computed) return false;  // uncomputed orphans are destroyed
      ++zero_ref_recount;
    }
    const auto chain = prefix_chains_.find(block.prefix_id);
    if (chain == prefix_chains_.end() || block.block_index < 0 ||
        block.block_index >=
            static_cast<std::int64_t>(chain->second.blocks.size()) ||
        chain->second.blocks[static_cast<std::size_t>(block.block_index)] !=
            static_cast<std::int64_t>(block_id)) {
      return false;
    }
  }
  // Every free slot is listed exactly once (no duplicates, none missing).
  if (free_recount != static_cast<std::int64_t>(free_block_ids_.size()) ||
      live_recount != live_shared_blocks_) {
    return false;
  }
  // --- Prefix chains: entries point back, counts, donors ---------------------
  std::int64_t chained = 0;
  for (const auto& [prefix_id, chain] : prefix_chains_) {
    std::int64_t present = 0;
    for (std::size_t k = 0; k < chain.blocks.size(); ++k) {
      const std::int64_t block_id = chain.blocks[k];
      if (block_id < 0) continue;
      if (static_cast<std::size_t>(block_id) >= block_slab_.size()) {
        return false;
      }
      const SharedBlock& block =
          block_slab_[static_cast<std::size_t>(block_id)];
      if (block.prefix_id != prefix_id ||
          block.block_index != static_cast<std::int64_t>(k)) {
        return false;
      }
      ++present;
    }
    if (present != chain.live) return false;
    if (chain.live == 0 && chain.tail_donor < 0) return false;  // not erased
    if (chain.tail_donor >= 0) {
      if (static_cast<std::size_t>(chain.tail_donor) >= entry_slots_.size()) {
        return false;
      }
      const Entry& donor = slot_entry(chain.tail_donor);
      if (donor.id < 0 || !donor.tail_donor || donor.prefix_id != prefix_id) {
        return false;
      }
    }
    chained += present;
  }
  if (chained != live_shared_blocks_) return false;
  // --- LRU list: exactly the computed refcount-0 blocks, by lru_seq ----------
  std::int64_t listed = 0;
  std::int64_t prev = -1;
  for (std::int64_t block_id = lru_head_; block_id >= 0;) {
    if (static_cast<std::size_t>(block_id) >= block_slab_.size() ||
        listed >= live_shared_blocks_) {
      return false;  // out of range, or a cycle
    }
    const SharedBlock& block = block_slab_[static_cast<std::size_t>(block_id)];
    if (block.prefix_id < 0 || block.ref != 0 || block.lru_prev != prev) {
      return false;
    }
    if (prev >= 0 &&
        block_slab_[static_cast<std::size_t>(prev)].lru_seq >= block.lru_seq) {
      return false;
    }
    ++listed;
    prev = block_id;
    block_id = block.lru_next;
  }
  if (prev != lru_tail_ || listed != cached_blocks_ ||
      listed != zero_ref_recount) {
    return false;
  }
  if (occupied_blocks() > capacity_blocks_) return false;
  // --- Host pool -------------------------------------------------------------
  std::int64_t host_sum = 0;
  for (const auto& [id, entry] : host_entries_) {
    if (entry.id != id || entry.tokens < 0 || entry.advancing ||
        entry.pending_blocks != 0 || entry.tail_donor) {
      return false;
    }
    if (std::binary_search(live_ids.begin(), live_ids.end(), id)) {
      return false;  // both resident and swapped out
    }
    if (entry.private_blocks != entry_blocks(entry) ||
        !entry.shared.empty()) {
      return false;  // host copies are whole and private
    }
    host_sum += entry.private_blocks;
  }
  return host_sum == host_used_blocks_ &&
         host_used_blocks_ <= host_capacity_blocks_;
}

void KvCacheManager::publish(MetricsRegistry* registry) const {
  CIMTPU_CHECK(registry != nullptr);
  registry->publish("kv.capacity_blocks", capacity_blocks_);
  registry->publish("kv.occupied_blocks", occupied_blocks());
  registry->publish("kv.referenced_blocks", referenced_blocks());
  registry->publish("kv.cached_blocks", cached_block_count());
  registry->publish("kv.blocks_allocated_total", blocks_allocated_total_);
  registry->publish("kv.cached_blocks_reclaimed_total",
                    cached_blocks_reclaimed_total_);
  registry->publish("kv.host_used_blocks", host_used_blocks_);
  registry->publish("kv.blocks_invalidated_total", blocks_invalidated_total_);
  registry->publish("kv.blocks_restored_total", blocks_restored_total_);
  registry->publish("kv.internal_fragmentation", internal_fragmentation());
}

}  // namespace cimtpu::serving
