#include "serving/metrics.h"

#include "common/status.h"

namespace cimtpu::serving {

double jain_fairness_index(const std::vector<double>& values) {
  if (values.empty()) return 1.0;
  double sum = 0;
  double sum_squares = 0;
  for (double value : values) {
    CIMTPU_CONFIG_CHECK(value >= 0,
                        "fairness allocations must be >= 0, got " << value);
    sum += value;
    sum_squares += value * value;
  }
  if (sum_squares == 0) return 1.0;  // everyone equally got nothing
  return sum * sum / (static_cast<double>(values.size()) * sum_squares);
}

LatencySummary summarize_latencies(std::vector<double>&& values) {
  sort_sample(values);
  return summarize_sorted_latencies(values);
}

LatencySummary summarize_sorted_latencies(const std::vector<double>& sorted) {
  LatencySummary summary;
  summary.count = static_cast<std::int64_t>(sorted.size());
  if (sorted.empty()) return summary;
  double sum = 0;
  for (double v : sorted) sum += v;
  summary.mean = sum / static_cast<double>(sorted.size());
  summary.p50 = percentile_sorted(sorted, 50.0);
  summary.p95 = percentile_sorted(sorted, 95.0);
  summary.p99 = percentile_sorted(sorted, 99.0);
  summary.max = sorted.back();
  return summary;
}

}  // namespace cimtpu::serving
