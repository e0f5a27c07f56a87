#include "serving/stats.h"

#include <algorithm>
#include <cmath>

#include "common/status.h"

namespace cimtpu::serving {

double percentile_sorted(const std::vector<double>& sorted, double p) {
  CIMTPU_CONFIG_CHECK(p >= 0.0 && p <= 100.0,
                      "percentile " << p << " outside [0, 100]");
  CIMTPU_CHECK(!sorted.empty());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double percentile(std::vector<double> values, double p) {
  CIMTPU_CONFIG_CHECK(p >= 0.0 && p <= 100.0,
                      "percentile " << p << " outside [0, 100]");
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, p);
}

std::vector<double> exponential_bounds(double start, double factor,
                                       int count) {
  CIMTPU_CONFIG_CHECK(start > 0, "histogram bounds must start > 0");
  CIMTPU_CONFIG_CHECK(factor > 1, "histogram bound factor must be > 1");
  CIMTPU_CONFIG_CHECK(count >= 1, "histogram needs >= 1 bound");
  std::vector<double> bounds;
  bounds.reserve(static_cast<std::size_t>(count));
  double bound = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

FixedBucketHistogram::FixedBucketHistogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      counts_(bounds_.size() + 1, 0) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    CIMTPU_CONFIG_CHECK(bounds_[i - 1] < bounds_[i],
                        "histogram bounds must be strictly ascending: bound "
                            << i << " (" << bounds_[i]
                            << ") <= bound " << i - 1 << " ("
                            << bounds_[i - 1] << ")");
  }
}

void FixedBucketHistogram::observe(double value) {
  // First bucket covers (-inf, bounds_[0]]; the final (overflow) bucket
  // covers (bounds_.back(), +inf).  Successive observations cluster
  // (steady decode repeats the same step latency and batch), so try the
  // previous bucket with two compares before binary-searching.
  const std::size_t n = bounds_.size();
  std::size_t bucket = last_bucket_;
  const bool above_lower = bucket == 0 || value > bounds_[bucket - 1];
  const bool within_upper = bucket >= n || value <= bounds_[bucket];
  if (!(above_lower && within_upper)) {
    bucket = static_cast<std::size_t>(
        std::lower_bound(bounds_.begin(), bounds_.end(), value) -
        bounds_.begin());
    last_bucket_ = bucket;
  }
  ++counts_[bucket];
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  sum_ += value;
  ++count_;
}

void FixedBucketHistogram::observe_repeated(double value, std::int64_t times) {
  if (times <= 0) return;
  observe(value);  // sets min/max and leaves last_bucket_ on value's bucket
  counts_[last_bucket_] += times - 1;
  count_ += times - 1;
  double sum = sum_;
  for (std::int64_t i = 1; i < times; ++i) sum += value;
  sum_ = sum;
}

double FixedBucketHistogram::quantile(double p) const {
  CIMTPU_CONFIG_CHECK(p >= 0.0 && p <= 100.0,
                      "quantile " << p << " outside [0, 100]");
  if (count_ == 0) return 0;
  if (p <= 0.0) return min_;
  if (p >= 100.0) return max_;
  // Target rank over the cumulative distribution, numpy-style (0 maps to
  // the first observation, count-1 to the last).
  const double rank = p / 100.0 * static_cast<double>(count_ - 1);
  std::int64_t cumulative = 0;
  for (std::size_t bucket = 0; bucket < counts_.size(); ++bucket) {
    if (counts_[bucket] == 0) continue;
    const std::int64_t in_bucket = counts_[bucket];
    // Observations in this bucket occupy ranks [cumulative,
    // cumulative + in_bucket - 1].
    if (rank <= static_cast<double>(cumulative + in_bucket - 1)) {
      // Bucket edges, clamped to the tracked extremes so the estimate
      // never leaves the observed range.
      double lo = bucket == 0 ? min_ : bounds_[bucket - 1];
      double hi = bucket < bounds_.size() ? bounds_[bucket] : max_;
      lo = std::max(lo, min_);
      hi = std::min(hi, max_);
      if (hi <= lo) return lo;
      if (in_bucket == 1) return 0.5 * (lo + hi);  // unknown position
      const double frac = (rank - static_cast<double>(cumulative)) /
                          static_cast<double>(in_bucket - 1);
      return lo + frac * (hi - lo);
    }
    cumulative += in_bucket;
  }
  return max_;  // numeric slack: the last observation
}

}  // namespace cimtpu::serving
