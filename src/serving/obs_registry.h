#pragma once
// Observability registry for the serving simulator: named counters,
// gauges, and fixed-bucket histograms that the metrics tables
// (serving/metrics.h), KvCacheManager and the admission policies
// publish into at the end of a run, plus the time-series sampler that
// snapshots engine state at a configurable simulated-time interval.
//
// Design constraints, in priority order:
//   * DETERMINISM — everything is keyed by std::map, so iteration (and
//     hence JSON export) order is the lexicographic name order on every
//     platform and thread count.
//   * HOT-PATH SAFETY — `histogram` returns a stable reference (std::map
//     nodes never move), so per-step code resolves its instruments ONCE
//     before the loop and then only observes; no per-step name lookups,
//     no per-step allocations.
//   * SELF-CONTAINED EXPORT — `to_json` emits the whole registry, so
//     bench schemas pick up newly-published instruments without
//     hand-threading each one through ServingMetrics.

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/units.h"
#include "serving/stats.h"

namespace cimtpu::serving {

/// Named counters/gauges/histograms.  Copyable (a run's registry is part
/// of its ServingMetrics result).
class MetricsRegistry {
 public:
  /// The histogram named `name`; created with `upper_bounds` on first
  /// use, returned as-is afterwards (the first registration's bounds win).
  /// The reference is stable for the registry's lifetime.
  FixedBucketHistogram& histogram(const std::string& name,
                                  std::vector<double> upper_bounds);

  /// Sets `name` to `value`: an integral value (a count or a flag) as a
  /// counter, the rest as a gauge.
  template <typename T>
  void publish(const std::string& name, T value) {
    if constexpr (std::is_integral_v<T>) {
      counters_[name] = static_cast<std::int64_t>(value);
    } else {
      gauges_[name] = value;
    }
  }

  /// The counter / gauge named `name`, or 0 when it was never published.
  /// Read-only: never creates the name.
  std::int64_t counter_or_zero(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  double gauge_or_zero(const std::string& name) const {
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second;
  }

  const std::map<std::string, std::int64_t>& counters() const {
    return counters_;
  }
  /// Test hooks: the serving path reads gauges through gauge_or_zero and
  /// exports both maps through to_json; only tests read them whole (a
  /// key's absence, a histogram's samples).
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, FixedBucketHistogram>& histograms() const {
    return histograms_;
  }

  /// The whole registry as one JSON object:
  ///   {"counters": {...}, "gauges": {...},
  ///    "histograms": {name: {count, sum, min, max, mean, p50, p95, p99,
  ///                          bounds: [...], bucket_counts: [...]}}}
  /// Deterministic: names in lexicographic order, doubles at full
  /// round-trip precision.
  std::string to_json() const;

 private:
  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, FixedBucketHistogram> histograms_;
};

/// One snapshot of the engine's observable state, taken between steps.
/// `tenant_admitted_tokens` lists (tenant_id, cumulative admitted
/// prompt+output tokens) ascending by tenant id, only for tenants that
/// have admitted at least one request by the sample time.
struct TimeSample {
  Seconds time = 0;        ///< simulated time of the snapshot
  std::int64_t step = 0;   ///< engine steps completed at the snapshot
  std::int64_t queue_depth = 0;         ///< requests waiting for admission
  std::int64_t resident_sequences = 0;  ///< requests in the running batch
  std::int64_t resident_decoders = 0;   ///< residents past prefill
  std::int64_t swapped_sequences = 0;   ///< requests in the host pool
  std::int64_t kv_referenced_blocks = 0;
  std::int64_t kv_occupied_blocks = 0;  ///< referenced + cached prefix
  std::int64_t kv_capacity_blocks = 0;
  double kv_internal_fragmentation = 0;
  double prefix_hit_rate = 0;  ///< cumulative, prefix-tagged tokens only
  std::vector<std::pair<std::int64_t, std::int64_t>> tenant_admitted_tokens;
};

/// Collects TimeSamples at a fixed simulated-time interval.  The driver
/// asks `due(now)` after each step — a branch on two doubles, nothing
/// else — and builds the (allocating) snapshot only when it returns true,
/// so a disabled sampler (interval 0) costs one predictable branch per
/// step.  A burst of simulated time crossing several intervals yields ONE
/// sample (the engine had no intermediate state to observe).
class TimeSeriesSampler {
 public:
  explicit TimeSeriesSampler(Seconds interval);

  bool enabled() const { return interval_ > 0; }
  bool due(Seconds now) const { return interval_ > 0 && now >= next_; }

  /// Records `sample` and advances the next-due time past sample.time.
  void record(TimeSample sample);

  std::vector<TimeSample> take() { return std::move(samples_); }

 private:
  Seconds interval_;
  Seconds next_ = 0;  ///< first sample at the first step past t=0
  std::vector<TimeSample> samples_;
};

/// TimeSamples as a JSON array (deterministic field order/precision; the
/// bench schema-v6 "timeseries" block and trace exports both embed it).
std::string time_samples_json(const std::vector<TimeSample>& samples);

/// A double as a JSON number that round-trips exactly (max_digits10) and
/// renders identically on every platform/thread count for identical
/// values — the byte-identical-trace guarantee rests on this.  Non-finite
/// values (never produced by the simulator) render as 0 to keep the JSON
/// valid.
std::string json_double(double value);

}  // namespace cimtpu::serving
