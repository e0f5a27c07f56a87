#pragma once
// Small integer/floating helpers shared by tiling and cost models.

#include <type_traits>

#include "common/status.h"

namespace cimtpu {

/// ceil(a / b) for positive integers.
template <typename T>
constexpr T ceil_div(T a, T b) {
  static_assert(std::is_integral_v<T>);
  CIMTPU_DCHECK(b > 0);
  return (a + b - 1) / b;
}

/// Rounds `a` up to the next multiple of `b`.
template <typename T>
constexpr T round_up(T a, T b) {
  static_assert(std::is_integral_v<T>);
  return ceil_div(a, b) * b;
}

}  // namespace cimtpu
