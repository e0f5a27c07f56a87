#include "serving/step_cost_cache.h"

#include <limits>
#include <sstream>

#include "common/status.h"
#include "ir/dtype.h"

namespace cimtpu::serving {

namespace {

constexpr int kLenBits = 40;
constexpr int kBatchBits = 23;  // bits 40..62; bit 63 is the kind flag
constexpr std::size_t kInitialSlots = 256;  // power of two

/// Fibonacci (multiplicative) hash.  The home slot MUST come from the HIGH
/// bits of the product: masking the low bits reduces to (key mod size) for
/// any odd multiplier, which collapses real shape keys badly — bucketed
/// lengths are multiples of seqlen_bucket, and batch/kind live in bits
/// 40+, so low-bit masking would leave only a handful of distinct home
/// slots.  The top bits mix every input bit.
std::uint64_t mix(std::uint64_t key) { return key * 0x9E3779B97F4A7C15ull; }

int shift_for(std::size_t slots) {  // 64 - log2(slots), slots a power of two
  return 64 - __builtin_ctzll(static_cast<unsigned long long>(slots));
}

}  // namespace

FlatCostTable::FlatCostTable()
    : slots_(kInitialSlots), shift_(shift_for(kInitialSlots)) {}

std::size_t FlatCostTable::slot_index(std::uint64_t key) const {
  return static_cast<std::size_t>(mix(key) >> shift_);
}

const StepCost* FlatCostTable::find(std::uint64_t key) const {
  for (std::size_t i = slot_index(key);; i = (i + 1) & (slots_.size() - 1)) {
    const Slot& slot = slots_[i];
    if (slot.key == key) return &slot.cost;
    if (slot.key == 0) return nullptr;
  }
}

void FlatCostTable::insert(std::uint64_t key, const StepCost& cost) {
  CIMTPU_CHECK(key != 0);
  if ((size_ + 1) * 10 > slots_.size() * 7) grow();
  for (std::size_t i = slot_index(key);; i = (i + 1) & (slots_.size() - 1)) {
    Slot& slot = slots_[i];
    if (slot.key == key) {  // racing duplicate compute: values identical
      slot.cost = cost;
      return;
    }
    if (slot.key == 0) {
      slot.key = key;
      slot.cost = cost;
      ++size_;
      return;
    }
  }
}

void FlatCostTable::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  shift_ = shift_for(slots_.size());
  for (const Slot& slot : old) {
    if (slot.key == 0) continue;
    for (std::size_t i = slot_index(slot.key);;
         i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i].key == 0) {
        slots_[i] = slot;
        break;
      }
    }
  }
}

bool SharedStepCostCache::Store::try_get(std::uint64_t key,
                                         StepCost* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const StepCost* found = table_.find(key);
  if (found == nullptr) return false;
  *out = *found;
  return true;
}

void SharedStepCostCache::Store::put(std::uint64_t key, const StepCost& cost) {
  std::lock_guard<std::mutex> lock(mu_);
  table_.insert(key, cost);
}

std::size_t SharedStepCostCache::Store::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_.size();
}

SharedStepCostCache::Store* SharedStepCostCache::store(
    const std::string& signature) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Store>& slot = stores_[signature];
  if (slot == nullptr) slot = std::make_unique<Store>();
  return slot.get();
}

std::size_t SharedStepCostCache::store_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stores_.size();
}

std::size_t SharedStepCostCache::total_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& [signature, store] : stores_) total += store->size();
  return total;
}

namespace {

void append_memory_level(std::ostringstream& out,
                         const mem::MemoryLevelSpec& level) {
  out << level.capacity << ',' << level.bandwidth << '|';
}

}  // namespace

std::string cost_cache_signature(const arch::TpuChipConfig& chip,
                                 const models::TransformerConfig& model,
                                 std::int64_t bucket) {
  // Anything that changes a run_*_layer result must land here — not just
  // the preset name, since callers may mutate individual spec fields of a
  // named preset (design-space sweeps do exactly that).  So the signature
  // spells out every numeric knob the layer simulator can see: clock and
  // technology, the active MXU geometry, the VPU, the memory hierarchy,
  // and the ICI link, plus the model architecture and the cost bucket.
  // Doubles print at round-trip precision: at the stream's default six
  // digits, chips a few ulps apart would share one store.
  std::ostringstream signature;
  signature.precision(std::numeric_limits<double>::max_digits10);
  signature << chip.name << '|' << chip.technology << '|' << chip.clock << '|'
            << chip.mxu_count << '|' << mxu_kind_name(chip.mxu_kind) << '|';
  if (chip.mxu_kind == arch::MxuKind::kDigitalSystolic) {
    signature << chip.systolic.rows << ',' << chip.systolic.cols << ','
              << static_cast<int>(chip.systolic.dataflow) << '|';
  } else {
    signature << chip.cim.grid_rows << ',' << chip.cim.grid_cols << ','
              << chip.cim.core_rows << ',' << chip.cim.core_cols << ','
              << chip.cim.core_macs_per_cycle << ','
              << chip.cim.weight_io_bytes_per_cycle << ','
              << chip.cim.overlapped_weight_update << '|';
  }
  signature << chip.vpu.sublanes << ',' << chip.vpu.lanes << ','
            << chip.vpu.ops_per_lane_per_cycle << '|';
  append_memory_level(signature, chip.memory.vmem);
  append_memory_level(signature, chip.memory.cmem);
  append_memory_level(signature, chip.memory.hbm);
  signature << chip.ici.links_per_chip << ',' << chip.ici.bandwidth_per_link
            << ',' << chip.ici.hop_latency << '|'
            << model.name << '|' << model.num_layers << '|' << model.d_model
            << '|' << model.num_heads << '|' << model.d_ff << '|'
            << model.vocab_size << '|' << static_cast<int>(model.ffn) << '|'
            << ir::dtype_name(model.dtype) << '|' << bucket;
  return signature.str();
}

StepCostCache::StepCostCache(const sim::Simulator& simulator,
                             const models::TransformerConfig& model,
                             std::int64_t bucket,
                             SharedStepCostCache::Store* shared)
    : prefill_plan_(simulator, model, models::LayerStage::kPrefill),
      decode_plan_(simulator, model, models::LayerStage::kDecode),
      bucket_(bucket),
      shared_(shared) {
  CIMTPU_CONFIG_CHECK(bucket >= 1, "seqlen bucket must be >= 1");
}

StepCost StepCostCache::prefill_layer(std::int64_t batch,
                                      std::int64_t seq_len) {
  return lookup(/*prefill=*/true, batch, bucket_up(seq_len));
}

StepCost StepCostCache::decode_layer(std::int64_t batch, std::int64_t kv_len) {
  return lookup(/*prefill=*/false, batch, bucket_up(kv_len));
}

std::uint64_t StepCostCache::pack_key(bool prefill, std::int64_t batch,
                                      std::int64_t len) {
  CIMTPU_CHECK(batch >= 1 && batch < (std::int64_t{1} << kBatchBits));
  CIMTPU_CHECK(len >= 1 && len < (std::int64_t{1} << kLenBits));
  return (prefill ? 1ull << 63 : 0ull) |
         (static_cast<std::uint64_t>(batch) << kLenBits) |
         static_cast<std::uint64_t>(len);
}

StepCost StepCostCache::lookup(bool prefill, std::int64_t batch,
                               std::int64_t len) {
  const std::uint64_t key = pack_key(prefill, batch, len);
  if (const StepCost* found = local_.find(key)) {
    ++hits_;
    return *found;
  }
  ++misses_;
  StepCost cost;
  if (shared_ == nullptr || !shared_->try_get(key, &cost)) {
    const sim::CostTotals layer = (prefill ? prefill_plan_ : decode_plan_)
                                      .evaluate(batch, len);
    cost.latency = layer.latency;
    cost.mxu_busy_time = layer.mxu_busy_time;
    cost.mxu_energy = layer.mxu_energy();
    cost.total_energy = layer.total_energy();
    if (shared_ != nullptr) shared_->put(key, cost);
  }
  local_.insert(key, cost);
  return cost;
}

}  // namespace cimtpu::serving
