#include "analysis/bounds.hpp"

#include <cassert>
#include <stdexcept>

#include "util/math.hpp"

namespace wrt::analysis {

std::int64_t RingParams::quota_sum() const noexcept {
  std::int64_t sum = 0;
  for (const Quota& quota : quotas) sum += quota.total();
  return sum;
}

std::int64_t sat_time_bound(const RingParams& params) {
  return params.ring_latency_slots + params.t_rap_slots +
         2 * params.quota_sum();
}

std::int64_t sat_time_bound_uniform(std::int64_t s, std::int64_t t_rap,
                                    std::int64_t n, Quota quota) {
  return s + t_rap + 2 * n * static_cast<std::int64_t>(quota.total());
}

std::int64_t sat_time_n_rounds_bound(const RingParams& params,
                                     std::int64_t n) {
  if (n < 1) throw std::invalid_argument("n rounds must be >= 1");
  return n * params.ring_latency_slots + n * params.t_rap_slots +
         (n + 1) * params.quota_sum();
}

std::int64_t sat_time_n_rounds_bound_uniform(std::int64_t s,
                                             std::int64_t t_rap,
                                             std::int64_t n_stations,
                                             Quota quota, std::int64_t n) {
  if (n < 1) throw std::invalid_argument("n rounds must be >= 1");
  return n * s + n * t_rap +
         (n + 1) * n_stations * static_cast<std::int64_t>(quota.total());
}

std::int64_t expected_sat_time(const RingParams& params) {
  return params.ring_latency_slots + params.t_rap_slots + params.quota_sum();
}

std::int64_t access_time_bound(const RingParams& params, std::size_t station,
                               std::int64_t x) {
  if (station >= params.quotas.size()) {
    throw std::out_of_range("access_time_bound: bad station index");
  }
  if (x < 0) throw std::invalid_argument("x must be >= 0");
  const auto l = static_cast<std::int64_t>(params.quotas[station].l);
  if (l == 0) throw std::invalid_argument("station has zero real-time quota");
  const std::int64_t rounds = util::ceil_div(x + 1, l) + 1;
  return sat_time_n_rounds_bound(params, rounds);
}

std::int64_t TptParams::h_sum() const noexcept {
  std::int64_t sum = 0;
  for (const std::int64_t h : h_sync_slots) sum += h;
  return sum;
}

double tpt_round_bound(const TptParams& params) {
  const auto n = static_cast<std::int64_t>(params.stations());
  return static_cast<double>(params.h_sum()) +
         2.0 * static_cast<double>(n - 1) * params.t_proc_plus_prop_slots +
         static_cast<double>(params.t_rap_slots);
}

bool tpt_feasible(const TptParams& params, std::int64_t d_slots) {
  return tpt_round_bound(params) <= static_cast<double>(d_slots) / 2.0;
}

std::int64_t tpt_reaction_bound(const TptParams& params) {
  return 2 * params.ttrt_slots;
}

}  // namespace wrt::analysis
