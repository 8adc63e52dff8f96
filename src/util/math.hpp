// Small numeric helpers used by the analytical bounds and the statistics
// collectors.
#pragma once

#include <cassert>
#include <cstdint>

namespace wrt::util {

/// Ceiling division for non-negative integers; Theorem 3 of the paper uses
/// ceil((x + 1) / l).
[[nodiscard]] constexpr std::int64_t ceil_div(std::int64_t num,
                                              std::int64_t den) noexcept {
  assert(den > 0);
  assert(num >= 0);
  return (num + den - 1) / den;
}

}  // namespace wrt::util
