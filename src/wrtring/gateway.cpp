#include "wrtring/gateway.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "analysis/bounds.hpp"

namespace wrt::wrtring {

Gateway::Gateway(Engine* engine, diffserv::BackboneSegment* far_side,
                 NodeId gateway_station)
    : engine_(engine), far_side_(far_side), station_(gateway_station) {
  assert(engine_ != nullptr);
  assert(far_side_ != nullptr);
}

std::uint32_t Gateway::quota_for_rate(double rate_per_slot) const {
  const analysis::RingParams params = engine_->ring_params();
  const auto round_slots =
      static_cast<double>(analysis::expected_sat_time(params));
  // Carrying rate R packets/slot through a round of T slots needs ceil(R*T)
  // transmission authorizations per round.
  return static_cast<std::uint32_t>(std::ceil(rate_per_slot * round_slots));
}

util::Result<Reservation> Gateway::reserve(FlowId flow, double rate_per_slot,
                                           NodeId carrier, bool premium) {
  if (rate_per_slot <= 0.0) {
    return util::Error::invalid_argument("rate must be positive");
  }
  Reservation reservation{flow, rate_per_slot, carrier, 0, premium};
  if (carrier != kInvalidNode) {
    reservation.granted_l = quota_for_rate(rate_per_slot);
    if (!engine_->admission_allows(Quota{reservation.granted_l, 0})) {
      return util::Error::admission_rejected(
          "ring cannot reserve " + std::to_string(reservation.granted_l) +
          " extra real-time authorizations per SAT round");
    }
  }
  if (premium && !far_side_->can_reserve_premium(rate_per_slot)) {
    return util::Error::admission_rejected("Premium capacity exhausted");
  }
  // Every leg passed.  The carrier's l quota grows so the MAC can actually
  // carry the admitted stream ("the bandwidth is allocated", Section 2.3).
  if (carrier != kInvalidNode) {
    const Quota current = engine_->station_quota(carrier);
    engine_->set_station_quota(
        carrier, Quota{current.l + reservation.granted_l, current.k});
  }
  if (premium) far_side_->reserve_premium(rate_per_slot);
  reservations_.push_back(reservation);
  return reservation;
}

util::Result<Reservation> Gateway::reserve_lan_to_ring(FlowId flow,
                                                       double rate_per_slot) {
  return reserve(flow, rate_per_slot, station_, /*premium=*/false);
}

util::Result<Reservation> Gateway::reserve_ring_to_lan(FlowId flow,
                                                       double rate_per_slot) {
  return reserve(flow, rate_per_slot, kInvalidNode, /*premium=*/true);
}

util::Result<Reservation> Gateway::reserve_ring_capacity(
    NodeId carrier, FlowId flow, double rate_per_slot) {
  return reserve(flow, rate_per_slot, carrier, /*premium=*/false);
}

util::Result<Reservation> Gateway::reserve_backbone_to_ring(
    FlowId flow, double rate_per_slot) {
  return reserve(flow, rate_per_slot, station_, /*premium=*/true);
}

util::Status Gateway::release(FlowId flow) {
  const auto it = std::find_if(
      reservations_.begin(), reservations_.end(),
      [flow](const Reservation& held) { return held.flow == flow; });
  if (it == reservations_.end()) {
    return util::Error::not_found("no reservation for that flow");
  }
  // A carrier that has left the ring took its quota with it.
  if (it->carrier != kInvalidNode &&
      engine_->virtual_ring().contains(it->carrier)) {
    const Quota current = engine_->station_quota(it->carrier);
    const std::uint32_t restored =
        current.l >= it->granted_l ? current.l - it->granted_l : 0;
    engine_->set_station_quota(it->carrier, Quota{restored, current.k});
  }
  if (it->premium) far_side_->release_premium(it->rate_per_slot);
  reservations_.erase(it);
  return util::Status::success();
}

}  // namespace wrt::wrtring
