#include "wrtring/gateway.hpp"

#include <cassert>
#include <cmath>

#include "analysis/bounds.hpp"

namespace wrt::wrtring {

Gateway::Gateway(Engine* engine, diffserv::LanModel* lan,
                 NodeId gateway_station)
    : engine_(engine), lan_(lan), station_(gateway_station) {
  assert(engine_ != nullptr);
  assert(lan_ != nullptr);
}

Gateway::Gateway(Engine* engine, diffserv::BackboneSegment* backbone,
                 NodeId gateway_station)
    : engine_(engine),
      lan_(nullptr),
      backbone_(backbone),
      station_(gateway_station) {
  assert(engine_ != nullptr);
  assert(backbone_ != nullptr);
}

std::uint32_t Gateway::quota_for_rate(double rate_per_slot) const {
  const analysis::RingParams params = engine_->ring_params();
  const auto round_slots =
      static_cast<double>(analysis::expected_sat_time(params));
  // Carrying rate R packets/slot through a round of T slots needs ceil(R*T)
  // transmission authorizations per round.
  return static_cast<std::uint32_t>(std::ceil(rate_per_slot * round_slots));
}

util::Result<Reservation> Gateway::reserve_lan_to_ring(FlowId flow,
                                                       double rate_per_slot) {
  if (rate_per_slot <= 0.0) {
    return util::Error::invalid_argument("rate must be positive");
  }
  const std::uint32_t extra_l = quota_for_rate(rate_per_slot);
  if (!engine_->admission_allows(Quota{extra_l, 0})) {
    return util::Error::admission_rejected(
        "ring cannot reserve " + std::to_string(extra_l) +
        " extra real-time authorizations per SAT round");
  }
  // Apply the grant: G1's l quota grows so the MAC can actually carry the
  // admitted stream ("the bandwidth is allocated", Section 2.3).
  grant_quota(station_, extra_l);
  Reservation reservation{flow, rate_per_slot, /*lan_to_ring=*/true,
                          extra_l, station_, /*backbone_premium=*/false};
  reservations_.push_back(reservation);
  return reservation;
}

void Gateway::grant_quota(NodeId carrier, std::uint32_t extra_l) {
  const Quota current = engine_->station_quota(carrier);
  engine_->set_station_quota(carrier, Quota{current.l + extra_l, current.k});
}

util::Result<Reservation> Gateway::reserve_ring_capacity(
    NodeId carrier, FlowId flow, double rate_per_slot) {
  if (rate_per_slot <= 0.0) {
    return util::Error::invalid_argument("rate must be positive");
  }
  const std::uint32_t extra_l = quota_for_rate(rate_per_slot);
  if (!engine_->admission_allows(Quota{extra_l, 0})) {
    return util::Error::admission_rejected(
        "egress ring cannot reserve " + std::to_string(extra_l) +
        " extra real-time authorizations per SAT round");
  }
  grant_quota(carrier, extra_l);
  Reservation reservation{flow, rate_per_slot, /*lan_to_ring=*/true,
                          extra_l, carrier, /*backbone_premium=*/false};
  reservations_.push_back(reservation);
  return reservation;
}

util::Result<Reservation> Gateway::reserve_backbone_to_ring(
    FlowId flow, double rate_per_slot) {
  assert(backbone_ != nullptr);
  if (rate_per_slot <= 0.0) {
    return util::Error::invalid_argument("rate must be positive");
  }
  const std::uint32_t extra_l = quota_for_rate(rate_per_slot);
  if (!engine_->admission_allows(Quota{extra_l, 0})) {
    return util::Error::admission_rejected(
        "ingress ring cannot reserve " + std::to_string(extra_l) +
        " extra real-time authorizations per SAT round");
  }
  if (!backbone_->can_reserve_premium(rate_per_slot)) {
    return util::Error::admission_rejected(
        "backbone Premium capacity exhausted");
  }
  grant_quota(station_, extra_l);
  backbone_->reserve_premium(rate_per_slot);
  Reservation reservation{flow, rate_per_slot, /*lan_to_ring=*/true,
                          extra_l, station_, /*backbone_premium=*/true};
  reservations_.push_back(reservation);
  return reservation;
}

util::Status Gateway::release(FlowId flow) {
  for (auto it = reservations_.begin(); it != reservations_.end(); ++it) {
    if (it->flow != flow) continue;
    if (it->lan_to_ring) {
      const NodeId carrier =
          it->carrier == kInvalidNode ? station_ : it->carrier;
      const Quota current = engine_->station_quota(carrier);
      const std::uint32_t restored =
          current.l >= it->granted_l ? current.l - it->granted_l : 0;
      engine_->set_station_quota(carrier, Quota{restored, current.k});
      if (it->backbone_premium) backbone_->release_premium(it->rate_per_slot);
    } else {
      lan_->release_premium(it->rate_per_slot);
    }
    reservations_.erase(it);
    return util::Status::success();
  }
  return util::Error::not_found("no reservation for that flow");
}

util::Result<Reservation> Gateway::reserve_ring_to_lan(FlowId flow,
                                                       double rate_per_slot) {
  if (rate_per_slot <= 0.0) {
    return util::Error::invalid_argument("rate must be positive");
  }
  if (!lan_->can_reserve_premium(rate_per_slot)) {
    return util::Error::admission_rejected(
        "LAN Premium capacity exhausted");
  }
  lan_->reserve_premium(rate_per_slot);
  Reservation reservation{flow, rate_per_slot, /*lan_to_ring=*/false, 0};
  reservations_.push_back(reservation);
  return reservation;
}

void Gateway::forward_to_lan(const traffic::Packet& packet, Tick now) {
  lan_->inject(packet, now);
}

double Gateway::reserved_into_ring() const noexcept {
  double total = 0.0;
  for (const auto& reservation : reservations_) {
    if (reservation.lan_to_ring) total += reservation.rate_per_slot;
  }
  return total;
}

}  // namespace wrt::wrtring
