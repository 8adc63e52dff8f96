// Real-time quota (bandwidth) allocation schemes.
//
// The paper deliberately leaves bandwidth allocation open: "by exploiting
// the WRT-Ring properties it is possible to apply to WRT-Ring the algorithms
// developed for FDDI" (footnote 1, citing Agrawal/Chen/Zhao [16] and
// Zhang/Burns [17]).  This module is that pointed-to extension: the classic
// timed-token synchronous-bandwidth schemes transliterated to WRT-Ring's
// l-quota, plus the Theorem-3-based feasibility test that validates an
// allocation against per-flow deadlines.
//
// A real-time flow at station i is (P_i, C_i, D_i): C_i packets arrive every
// P_i slots and each batch must reach the head of the ring within D_i slots.
// By Theorem 3 a batch of C_i packets waits at most
// access_time_bound(params, i, C_i - 1) slots, so an allocation {l_i} is
// feasible iff that bound is <= D_i for every flow.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/bounds.hpp"
#include "util/result.hpp"
#include "util/types.hpp"

namespace wrt::analysis {

/// One station's real-time requirement.
struct RtRequirement {
  std::size_t station = 0;          ///< index into RingParams::quotas
  std::int64_t period_slots = 0;    ///< P_i
  std::int64_t packets_per_period = 1;  ///< C_i
  std::int64_t deadline_slots = 0;  ///< D_i (relative)

  /// Utilisation of this flow in packets/slot.
  [[nodiscard]] double utilisation() const noexcept {
    return period_slots > 0 ? static_cast<double>(packets_per_period) /
                                  static_cast<double>(period_slots)
                            : 0.0;
  }
};

enum class AllocationScheme : std::uint8_t {
  kEqualPartition,          ///< l_i = L / N (the "full length" scheme)
  kProportional,            ///< l_i proportional to flow utilisation
  kNormalizedProportional,  ///< classic NPA from the timed-token literature
};

struct AllocationInput {
  std::int64_t ring_latency_slots = 0;  ///< S
  std::int64_t t_rap_slots = 0;         ///< T_rap
  std::uint32_t k_per_station = 1;      ///< best-effort quota (fixed)
  std::int64_t total_l_budget = 0;      ///< L: total real-time quota to split
  std::vector<RtRequirement> flows;     ///< at most one per station
};

/// Computes per-station quotas under the chosen scheme.  The number of
/// stations is max(station)+1 over the flows; stations without a flow get
/// l = 0 (they still get k best-effort quota).  Fails when the input is
/// inconsistent (duplicate stations, zero budget with non-empty flows).
[[nodiscard]] util::Result<RingParams> allocate(AllocationScheme scheme,
                                                const AllocationInput& input,
                                                std::size_t n_stations);

/// Theorem-3 feasibility: every flow's worst-case batch wait <= deadline.
/// Returns the failing flow's index in the error message when infeasible.
[[nodiscard]] util::Status check_feasibility(
    const RingParams& params, const std::vector<RtRequirement>& flows);

[[nodiscard]] std::string to_string(AllocationScheme scheme);

}  // namespace wrt::analysis
