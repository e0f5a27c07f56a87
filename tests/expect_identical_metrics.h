#pragma once
// EXPECT_EQ on every simulated ServingMetrics field, doubles included: the
// claims these tests make (tracing on/off, sweep vs serial, shared vs
// private cost cache) are bit-identity, not closeness.  The fields come
// from for_each_leaf_pair (serving/metrics.h), the walk identical_fields
// makes over the structs' own tables, so a field added there is compared
// here with no edit; each failure names the field's path, e.g.
// "fault.retries" or "tenants[1].ttft.p99".

#include <gtest/gtest.h>

#include <string>

#include "serving/serving_sim.h"

namespace cimtpu::serving {

template <typename T>
void expect_identical_field(const T& a, const T& b, const std::string& path) {
  for_each_leaf_pair(a, b, path,
                     [](const std::string& leaf, const auto& x,
                        const auto& y) { EXPECT_EQ(x, y) << leaf; });
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
