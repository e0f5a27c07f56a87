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
  double* first = values.data();
  double* last = first + values.size();
  std::vector<double> scratch;
  sort_sample(first, last, &scratch);
  return summarize_sorted_latencies(first, last);
}

LatencySummary summarize_sorted_latencies(const double* first,
                                          const double* last) {
  LatencySummary summary;
  summary.count = static_cast<std::int64_t>(last - first);
  if (first == last) return summary;
  double sum = 0;
  for (const double* v = first; v != last; ++v) sum += *v;
  summary.mean = sum / static_cast<double>(summary.count);
  summary.p50 = percentile_sorted(first, last, 50.0);
  summary.p95 = percentile_sorted(first, last, 95.0);
  summary.p99 = percentile_sorted(first, last, 99.0);
  summary.max = *(last - 1);
  return summary;
}

}  // namespace cimtpu::serving
