// Closed-form bounds from the paper, as checkable code.
//
// Section 2.6 derives the delay-bounded service:
//   Theorem 1 / Eq (1):  SAT_TIME_i < S + T_rap + 2 * sum_j (l_j + k_j)
//   Prop 1    / Eq (2):  uniform quotas: S + T_rap + 2 N (l + k)
//   Theorem 2 / Eq (3):  SAT_TIME_i[n] <= n S + n T_rap + (n+1) sum_j (l_j+k_j)
//   Prop 2    / Eq (4):  uniform: n S + n T_rap + (n+1) N (l+k)
//   Prop 3    / Eq (5):  E[SAT_TIME] = S + T_rap + sum_j (l_j + k_j)
//   Theorem 3 / Eq (6):  T_wait^i <= SAT_TIME[ ceil((x+1)/l_i) + 1 ]
// Section 3 gives the TPT comparison:
//   Eq (7): sum_i H_e,i + 2 (N-1) (T_proc + T_prop) + T_rap <= D / 2,
//           D = 2 TTRT; token reaction bound D, SAT reaction bound SAT_TIME.
//   Section 3.2.1: token traverses 2 (N-1) links per round, SAT traverses N.
//
// All quantities are in slots (the paper's time unit).  The simulator
// verifies the inequalities empirically; benches print bound-vs-measured.
#pragma once

#include <cstdint>
#include <vector>

#include "util/result.hpp"
#include "util/types.hpp"

namespace wrt::analysis {

/// WRT-Ring network parameters for the bounds.
struct RingParams {
  std::int64_t ring_latency_slots = 0;  ///< S: SAT full-circle travel time
  std::int64_t t_rap_slots = 0;         ///< T_rap = T_ear + T_update
  std::vector<Quota> quotas;            ///< per-station (l, k)

  [[nodiscard]] std::int64_t quota_sum() const noexcept;
  [[nodiscard]] std::size_t stations() const noexcept { return quotas.size(); }
};

/// Theorem 1 / Eq (1): strict upper bound on a single SAT rotation.
[[nodiscard]] std::int64_t sat_time_bound(const RingParams& params);

/// Prop 1 / Eq (2): uniform-quota form.
[[nodiscard]] std::int64_t sat_time_bound_uniform(std::int64_t s,
                                                  std::int64_t t_rap,
                                                  std::int64_t n, Quota quota);

/// Theorem 2 / Eq (3): bound on n consecutive rotations.
[[nodiscard]] std::int64_t sat_time_n_rounds_bound(const RingParams& params,
                                                   std::int64_t n);

/// Prop 2 / Eq (4): uniform-quota form of Eq (3).
[[nodiscard]] std::int64_t sat_time_n_rounds_bound_uniform(std::int64_t s,
                                                           std::int64_t t_rap,
                                                           std::int64_t n_stations,
                                                           Quota quota,
                                                           std::int64_t n);

/// Prop 3 / Eq (5): bound on the long-run average rotation.
[[nodiscard]] std::int64_t expected_sat_time(const RingParams& params);

/// Theorem 3 / Eq (6): worst-case wait of a tagged real-time packet entering
/// station `station`'s queue behind `x` queued real-time packets.
[[nodiscard]] std::int64_t access_time_bound(const RingParams& params,
                                             std::size_t station,
                                             std::int64_t x);

// ---------------------------------------------------------------------------
// TPT (Token Passing Tree) baseline formulas, Section 3.
// ---------------------------------------------------------------------------

struct TptParams {
  std::vector<std::int64_t> h_sync_slots;  ///< H_e,i per station
  double t_proc_plus_prop_slots = 1.0;     ///< token transmit + propagate
  std::int64_t t_rap_slots = 0;
  std::int64_t ttrt_slots = 0;             ///< Target Token Rotation Time

  [[nodiscard]] std::int64_t h_sum() const noexcept;
  [[nodiscard]] std::size_t stations() const noexcept {
    return h_sync_slots.size();
  }
};

/// Left side of Eq (7): worst-case token round (sync load + walk + RAP).
[[nodiscard]] double tpt_round_bound(const TptParams& params);

/// Eq (7) feasibility given the tightest application deadline D:
/// round bound <= D / 2.
[[nodiscard]] bool tpt_feasible(const TptParams& params, std::int64_t d_slots);

/// TPT loss-reaction bound: D = 2 * TTRT (Section 3.1.3).
[[nodiscard]] std::int64_t tpt_reaction_bound(const TptParams& params);

/// Section 3.2.1 hop counts per control-signal round.
[[nodiscard]] constexpr std::int64_t wrt_hops_per_round(std::int64_t n) noexcept {
  return n;
}
[[nodiscard]] constexpr std::int64_t tpt_hops_per_round(std::int64_t n) noexcept {
  return 2 * (n - 1);
}

/// Section 3.3 empty-network control-signal round trips, with t_sig the
/// per-link control transfer time (T_proc + T_prop).
[[nodiscard]] constexpr double wrt_signal_round_trip(std::int64_t n, double t_sig,
                                                     double t_rap) noexcept {
  return static_cast<double>(n) * t_sig + t_rap;
}
[[nodiscard]] constexpr double tpt_signal_round_trip(std::int64_t n, double t_sig,
                                                     double t_rap) noexcept {
  return 2.0 * static_cast<double>(n - 1) * t_sig + t_rap;
}

}  // namespace wrt::analysis
