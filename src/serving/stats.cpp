#include "serving/stats.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/status.h"

namespace cimtpu::serving {

namespace {

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

std::uint64_t bits_of(const double* value) {
  std::uint64_t bits;
  std::memcpy(&bits, value, sizeof bits);
  return bits;
}

void set_bits(double* value, std::uint64_t bits) {
  std::memcpy(value, &bits, sizeof bits);
}

// Order-preserving map from a double's bit pattern to an unsigned key:
// negative values flip every bit, the rest only the sign bit, so unsigned
// key order is the IEEE-754 total order.
std::uint64_t sort_key(double value) {
  const std::uint64_t bits = bits_of(&value);
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

double from_sort_key(std::uint64_t key) {
  double value;
  set_bits(&value, (key & kSignBit) != 0 ? key & ~kSignBit : ~key);
  return value;
}

}  // namespace

// Stable LSD radix sort, one byte per pass, on the keys written over the
// range's own doubles.  Every pass's histogram is counted in the one read
// that builds the keys, and a pass whose byte is the same in every key
// (the high exponent bytes of a latency sample) is skipped.
void sort_sample(double* first, double* last, std::vector<double>* scratch) {
  const auto n = static_cast<std::size_t>(last - first);
  if (n < 2) return;
  constexpr int kPasses = 8;
  std::array<std::array<std::size_t, 256>, kPasses> counts{};
  for (double* value = first; value != last; ++value) {
    const std::uint64_t key = sort_key(*value);
    set_bits(value, key);
    for (int pass = 0; pass < kPasses; ++pass) {
      ++counts[pass][(key >> (8 * pass)) & 0xff];
    }
  }
  if (scratch->size() < n) scratch->resize(n);
  const std::uint64_t any_key = bits_of(first);
  double* from = first;
  double* to = scratch->data();
  for (int pass = 0; pass < kPasses; ++pass) {
    std::array<std::size_t, 256>& offsets = counts[pass];
    const int shift = 8 * pass;
    if (offsets[(any_key >> shift) & 0xff] == n) continue;
    std::size_t next = 0;
    for (std::size_t& offset : offsets) {
      const std::size_t count = offset;
      offset = next;
      next += count;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t key = bits_of(from + i);
      set_bits(to + offsets[(key >> shift) & 0xff]++, key);
    }
    std::swap(from, to);
  }
  for (std::size_t i = 0; i < n; ++i) {
    first[i] = from_sort_key(bits_of(from + i));
  }
}

double percentile_sorted(const double* first, const double* last, double p) {
  CIMTPU_CONFIG_CHECK(p >= 0.0 && p <= 100.0,
                      "percentile " << p << " outside [0, 100]");
  CIMTPU_CHECK(last > first);
  const double rank = p / 100.0 * static_cast<double>(last - first - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return first[lo] + frac * (first[hi] - first[lo]);
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

void FixedBucketHistogram::observe_replayed(double value, std::int64_t times,
                                            double replayed_sum) {
  if (times <= 0) return;
  observe(value);  // sets min/max and leaves last_bucket_ on value's bucket
  counts_[last_bucket_] += times - 1;
  count_ += times - 1;
  sum_ = replayed_sum;
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
