#include "analysis/allocation.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

namespace wrt::analysis {

namespace {

/// Distributes `budget` units over weights, largest-remainder rounding,
/// guaranteeing at least 1 unit for any station with positive weight when
/// the budget allows.
std::vector<std::uint32_t> apportion(const std::vector<double>& weights,
                                     std::int64_t budget) {
  const std::size_t n = weights.size();
  std::vector<std::uint32_t> shares(n, 0);
  double total = 0.0;
  for (const double w : weights) total += w;
  if (total <= 0.0 || budget <= 0) return shares;

  std::vector<double> exact(n);
  std::int64_t assigned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    exact[i] = static_cast<double>(budget) * weights[i] / total;
    shares[i] = static_cast<std::uint32_t>(exact[i]);
    assigned += shares[i];
  }
  // Largest remainders get the leftover units.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return exact[a] - std::floor(exact[a]) > exact[b] - std::floor(exact[b]);
  });
  for (std::size_t idx = 0; assigned < budget && idx < n; ++idx, ++assigned) {
    ++shares[order[idx]];
  }
  // Floor of 1 for positive-weight stations, stolen from the largest share.
  for (std::size_t i = 0; i < n; ++i) {
    if (weights[i] > 0.0 && shares[i] == 0) {
      const auto richest = static_cast<std::size_t>(
          std::max_element(shares.begin(), shares.end()) - shares.begin());
      if (shares[richest] >= 2) {
        --shares[richest];
        ++shares[i];
      }
    }
  }
  return shares;
}

}  // namespace

util::Result<RingParams> allocate(AllocationScheme scheme,
                                  const AllocationInput& input,
                                  std::size_t n_stations) {
  std::set<std::size_t> seen;
  for (const auto& flow : input.flows) {
    if (flow.station >= n_stations) {
      return util::Error::invalid_argument("flow station out of range");
    }
    if (!seen.insert(flow.station).second) {
      return util::Error::invalid_argument(
          "multiple flows on one station; aggregate them first");
    }
    if (flow.period_slots <= 0 || flow.packets_per_period <= 0) {
      return util::Error::invalid_argument("flow needs positive P and C");
    }
  }
  if (!input.flows.empty() && input.total_l_budget <= 0) {
    return util::Error::invalid_argument("zero quota budget with flows");
  }

  std::vector<double> weights(n_stations, 0.0);
  switch (scheme) {
    case AllocationScheme::kEqualPartition:
      for (const auto& flow : input.flows) weights[flow.station] = 1.0;
      break;
    case AllocationScheme::kProportional:
      for (const auto& flow : input.flows) {
        weights[flow.station] = flow.utilisation();
      }
      break;
    case AllocationScheme::kNormalizedProportional: {
      // NPA: weight u_i / (1 - U) with U the total utilisation, which
      // reduces to proportional-to-u_i over a fixed budget; the difference
      // from kProportional is that stations also get weight for tight
      // deadlines (deadline-normalised utilisation).
      double total_util = 0.0;
      for (const auto& flow : input.flows) total_util += flow.utilisation();
      if (total_util >= 1.0) {
        return util::Error::capacity_exceeded(
            "total real-time utilisation >= 1");
      }
      for (const auto& flow : input.flows) {
        const double deadline_factor =
            flow.deadline_slots > 0
                ? static_cast<double>(flow.period_slots) /
                      static_cast<double>(flow.deadline_slots)
                : 1.0;
        weights[flow.station] =
            flow.utilisation() / (1.0 - total_util) * std::max(1.0, deadline_factor);
      }
      break;
    }
  }

  RingParams params;
  params.ring_latency_slots = input.ring_latency_slots;
  params.t_rap_slots = input.t_rap_slots;
  const std::vector<std::uint32_t> l_shares =
      apportion(weights, input.total_l_budget);
  params.quotas.resize(n_stations);
  for (std::size_t i = 0; i < n_stations; ++i) {
    params.quotas[i] = Quota{l_shares[i], input.k_per_station};
  }
  return params;
}

util::Status check_feasibility(const RingParams& params,
                               const std::vector<RtRequirement>& flows) {
  for (std::size_t idx = 0; idx < flows.size(); ++idx) {
    const auto& flow = flows[idx];
    if (flow.station >= params.quotas.size()) {
      return util::Error::invalid_argument("flow station out of range");
    }
    if (params.quotas[flow.station].l == 0) {
      return util::Error::admission_rejected(
          "flow " + std::to_string(idx) + ": station has no real-time quota");
    }
    const std::int64_t wait =
        access_time_bound(params, flow.station, flow.packets_per_period - 1);
    if (wait > flow.deadline_slots) {
      return util::Error::admission_rejected(
          "flow " + std::to_string(idx) + ": worst-case wait " +
          std::to_string(wait) + " slots exceeds deadline " +
          std::to_string(flow.deadline_slots));
    }
  }
  return util::Status::success();
}

std::string to_string(AllocationScheme scheme) {
  switch (scheme) {
    case AllocationScheme::kEqualPartition:
      return "equal-partition";
    case AllocationScheme::kProportional:
      return "proportional";
    case AllocationScheme::kNormalizedProportional:
      return "normalized-proportional";
  }
  return "unknown";
}

}  // namespace wrt::analysis
