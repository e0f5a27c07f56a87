#pragma once
// EXPECT_EQ on every simulated ServingMetrics field, doubles included: the
// claims these tests make (tracing on/off, sweep vs serial, shared vs
// private cost cache) are bit-identity, not closeness.  The fields come
// from the structs' own tables (ServingMetrics::for_each_field and the
// nested tables it reaches), so a field added there is compared here with
// no edit; each failure names the field's path, e.g. "fault.retries" or
// "tenants[1].ttft.p99".  What the ServingMetrics table leaves out is left
// out here too: the host-time field sim_wall_seconds, and the time-series
// samples, which exist only when sampling is on.

#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

#include "serving/serving_sim.h"

namespace cimtpu::serving {

template <typename T>
void expect_identical_field(const T& a, const T& b, const std::string& path) {
  if constexpr (std::is_arithmetic_v<T>) {
    EXPECT_EQ(a, b) << path;
  } else if constexpr (std::is_same_v<T, MetricsRegistry>) {
    // Fed only by simulated state, so its whole JSON export must match
    // byte for byte too.
    EXPECT_EQ(a.to_json(), b.to_json()) << path;
  } else if constexpr (std::is_same_v<T, std::vector<TenantMetrics>>) {
    ASSERT_EQ(a.size(), b.size()) << path;
    for (std::size_t i = 0; i < a.size(); ++i) {
      expect_identical_field(a[i], b[i],
                             path + "[" + std::to_string(i) + "]");
    }
  } else {
    T::for_each_field([&](const char* name, auto member, auto&&...) {
      expect_identical_field(a.*member, b.*member,
                             path.empty() ? name : path + "." + name);
    });
  }
}

inline void expect_identical_summary(const LatencySummary& a,
                                     const LatencySummary& b) {
  expect_identical_field(a, b, "");
}

inline void expect_identical_metrics(const ServingMetrics& a,
                                     const ServingMetrics& b) {
  expect_identical_field(a, b, "");
}

}  // namespace cimtpu::serving
