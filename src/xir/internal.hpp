// src/xir/internal.hpp
//
// Shared internals of the two xir engines.

#pragma once

#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

namespace liplib::xir::detail {

/// The environment period both engines key their repeat search with:
/// the saturating lcm of the sink pattern lengths (an empty pattern is a
/// greedy sink, period 1; sources are always ready), as
/// lip::System::environment_period() computes it.
inline std::uint64_t environment_period(
    const std::vector<std::vector<std::uint8_t>>& sink_patterns) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t l = 1;
  for (const auto& pat : sink_patterns) {
    if (pat.empty()) continue;
    const std::uint64_t step = pat.size() / std::gcd(l, pat.size());
    l = l > kMax / step ? kMax : l * step;
  }
  return l;
}

}  // namespace liplib::xir::detail
