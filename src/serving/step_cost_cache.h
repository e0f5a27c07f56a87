#pragma once
// Memoized per-layer step costs for the serving simulator.
//
// The continuous-batching engine costs millions of steps per run, but the
// distinct (prefill/decode, batch, bucketed-seqlen) shapes number in the
// hundreds — so every shape is simulated once and memoized.  Two layers:
//
//   * StepCostCache — the per-run cache on the hot path.  Lookups hit an
//     open-addressed flat table (no node allocations, no pointer chasing)
//     keyed by the packed u64 shape key.  Hit/miss counters are LOCAL:
//     they depend only on the run's own lookup sequence, never on what a
//     shared store already holds, so metrics stay bit-identical whether or
//     not a shared store is attached and however sweep threads interleave.
//   * SharedStepCostCache — an optional cross-run store for sweeps.  Runs
//     with the same (chip config, model, bucket) signature share computed
//     costs, so a sweep's points stop re-simulating identical
//     run_prefill_layer / run_decode_layer shapes.  Thread-safe; a racing
//     duplicate compute is allowed (the simulator is deterministic, so
//     both threads write the same value) rather than holding the lock
//     across a simulation.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/tpu_config.h"
#include "common/math_util.h"
#include "common/units.h"
#include "models/transformer.h"
#include "sim/layer_plan.h"
#include "sim/simulator.h"

namespace cimtpu::serving {

class MetricsRegistry;

/// Per-layer cost of one engine step shape.
struct StepCost {
  Seconds latency = 0;
  Seconds mxu_busy_time = 0;
  Joules mxu_energy = 0;
  Joules total_energy = 0;
};

/// Open-addressed hash table from packed shape key to StepCost: one flat
/// slot array, linear probing, Fibonacci hashing.  Key 0 is the empty
/// sentinel (packed keys always carry batch >= 1 in the high bits, so 0
/// never collides with a real shape).
class FlatCostTable {
 public:
  FlatCostTable();

  /// Returns the cost for `key`, or nullptr when absent.
  const StepCost* find(std::uint64_t key) const;

  /// Inserts `key` (must not be present or 0); grows at ~70% load.
  void insert(std::uint64_t key, const StepCost& cost);

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    std::uint64_t key = 0;  ///< 0 = empty
    StepCost cost;
  };

  std::size_t slot_index(std::uint64_t key) const;
  void grow();

  std::vector<Slot> slots_;  ///< power-of-two capacity
  int shift_ = 0;            ///< 64 - log2(capacity): home slot = high bits
  std::size_t size_ = 0;
};

/// Cross-run cost store for sweeps: one mutex-protected FlatCostTable per
/// (chip config, model, bucket) signature, created on demand.
class SharedStepCostCache {
 public:
  class Store {
   public:
    bool try_get(std::uint64_t key, StepCost* out) const;
    void put(std::uint64_t key, const StepCost& cost);
    std::size_t size() const;

   private:
    mutable std::mutex mu_;
    FlatCostTable table_;
  };

  /// The store for `signature` (see cost_cache_signature); created on
  /// first use and stable for the cache's lifetime.
  Store* store(const std::string& signature);

  std::size_t store_count() const;
  std::size_t total_entries() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<Store>> stores_;
};

/// Signature under which runs may share computed step costs: every field
/// that feeds run_prefill_layer / run_decode_layer results.  Chip count,
/// eviction policy, and traffic do NOT affect per-layer shape costs, so a
/// whole arrival-rate x chips x policy sweep typically shares one store.
std::string cost_cache_signature(const arch::TpuChipConfig& chip,
                                 const models::TransformerConfig& model,
                                 std::int64_t bucket);

/// Memoizes per-layer prefill/decode costs keyed on (batch, seqlen bucket).
/// Sequence lengths are rounded UP to `bucket` tokens — conservative, and
/// it bounds the number of distinct shapes the simulator ever costs.  A
/// miss evaluates the stage's compiled sim::LayerPlan, which is
/// bit-identical to sim::run_prefill_layer / sim::run_decode_layer.
class StepCostCache {
 public:
  StepCostCache(const sim::Simulator& simulator,
                const models::TransformerConfig& model,
                std::int64_t bucket = 128,
                SharedStepCostCache::Store* shared = nullptr);

  /// One prefill layer over `batch` prompts of (bucketed) length `seq_len`.
  /// Chunked prefill costs chunks as differences of these shapes —
  /// prefill(prev + chunk) - prefill(prev) — which also covers chunks that
  /// BEGIN at a nonzero KV offset (prev > 0 on a sequence's first chunk):
  /// a paged-KV prefix hit skips the cached leading tokens, so its first
  /// chunk attends over the reused prefix exactly like a later chunk
  /// attends over earlier chunks.
  StepCost prefill_layer(std::int64_t batch, std::int64_t seq_len);

  /// One decode layer over `batch` sequences at (bucketed) KV length
  /// `kv_len`.
  StepCost decode_layer(std::int64_t batch, std::int64_t kv_len);

  std::int64_t bucket_up(std::int64_t len) const {
    return round_up(len, bucket_);
  }

  /// Packs a shape into the cache key: kind bit 63, batch bits 40..62,
  /// len bits 0..39.  Checked against the field widths so distinct shapes
  /// can never alias.
  static std::uint64_t pack_key(bool prefill, std::int64_t batch,
                                std::int64_t len);

  std::size_t size() const { return local_.size(); }
  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }
  /// Load factor of the local flat table (size / slot capacity), in
  /// [0, ~0.7) — the probe-length health gauge the bench JSON reports.
  double occupancy() const {
    return local_.capacity() == 0
               ? 0.0
               : static_cast<double>(local_.size()) /
                     static_cast<double>(local_.capacity());
  }

  /// Publishes entries/hits/misses/occupancy into `registry` under
  /// "cost_cache.*" names (serving/obs_registry.h).
  void publish(MetricsRegistry* registry) const;

  /// Reusable scratch for cost_step's decode grouping (per-run, never
  /// shared across threads).
  std::vector<std::int64_t>& decode_group_scratch() { return scratch_; }

  /// Memo of the last decode-step grouping and its summed cost: steady
  /// decode runs repeat the same (bucket, count) grouping for hundreds of
  /// consecutive steps (buckets only move at boundary crossings, the batch
  /// only at admit/finish/preempt), so cost_step skips the whole per-group
  /// lookup loop on a match.  Pure memoization of a deterministic sum, so
  /// results are bit-identical; skipped lookups are not counted in
  /// hits/misses, but deterministically so (the memo depends only on the
  /// step sequence, never on threading or cache sharing).
  bool last_decode_groups_match(
      const std::vector<std::pair<std::int64_t, std::int64_t>>& groups) const {
    return last_groups_valid_ && groups == last_groups_;
  }
  const StepCost& last_decode_groups_cost() const { return last_groups_cost_; }
  std::int64_t last_decode_groups_batch() const { return last_groups_batch_; }
  void remember_decode_groups(
      const std::vector<std::pair<std::int64_t, std::int64_t>>& groups,
      std::int64_t batch, const StepCost& cost) {
    last_groups_ = groups;
    last_groups_batch_ = batch;
    last_groups_cost_ = cost;
    last_groups_valid_ = true;
  }

 private:
  StepCost lookup(bool prefill, std::int64_t batch, std::int64_t len);

  sim::LayerPlan prefill_plan_;
  sim::LayerPlan decode_plan_;
  std::int64_t bucket_;
  FlatCostTable local_;
  SharedStepCostCache::Store* shared_;  ///< may be null (per-run cache only)
  std::vector<std::int64_t> scratch_;
  std::vector<std::pair<std::int64_t, std::int64_t>> last_groups_;
  StepCost last_groups_cost_;
  std::int64_t last_groups_batch_ = 0;
  bool last_groups_valid_ = false;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace cimtpu::serving
