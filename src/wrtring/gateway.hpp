// Gateway between the WRT-Ring ad hoc network and a Diffserv network
// (Section 2.3, Figure 2).
//
// Station G1 belongs to the ring like any other station; what makes it a
// gateway is the reservation bookkeeping: before a real-time stream crosses
// the boundary, the requesting side asks G1 for bandwidth and G1 checks the
// *other* network — the ring's Theorem-1 bound for a stream entering the
// ring, the far side's Premium capacity for a stream leaving it.  Only if
// every check passes is the reservation installed and the stream admitted.
#pragma once

#include <cstdint>
#include <vector>

#include "diffserv/diffserv.hpp"
#include "util/result.hpp"
#include "util/types.hpp"
#include "wrtring/engine.hpp"

namespace wrt::wrtring {

/// A real-time stream reservation crossing the gateway, with the resources
/// it holds.
struct Reservation {
  FlowId flow = kInvalidFlow;
  double rate_per_slot = 0.0;  ///< packets per slot
  /// The in-ring station whose l quota carries the stream: G1 for streams
  /// entering the ring, the source station for federation egress legs, and
  /// kInvalidNode when the reservation holds no ring quota.
  NodeId carrier = kInvalidNode;
  std::uint32_t granted_l = 0;  ///< extra l quota applied to the carrier
  /// True when the reservation holds `rate_per_slot` of the far side's
  /// Premium budget.
  bool premium = false;
};

class Gateway {
 public:
  /// `engine` and `far_side` must outlive the gateway.  `far_side` is the
  /// Diffserv network across G1: a LAN's links() or a federation backbone
  /// segment.  `gateway_station` is G1's node id in the ring.
  Gateway(Engine* engine, diffserv::BackboneSegment* far_side,
          NodeId gateway_station);

  /// LAN -> ring: "the LAN asks G1 for the needed bandwidth to transmit the
  /// real-time stream towards the ad hoc network.  Station G1 is controlled
  /// by WRT-Ring, hence the protocol checks whether it is able to reserve
  /// the required bandwidth" (Section 2.3).  The rate is converted into the
  /// extra l-quota G1 would need per SAT round and checked against the
  /// ring's admission bound.
  [[nodiscard]] util::Result<Reservation> reserve_lan_to_ring(
      FlowId flow, double rate_per_slot);

  /// Ring -> LAN: "G1 asks the Diffserv architecture if the necessary
  /// bandwidth can be guaranteed inside the LAN."
  [[nodiscard]] util::Result<Reservation> reserve_ring_to_lan(
      FlowId flow, double rate_per_slot);

  /// Federation egress leg: admit a crossing stream whose in-ring
  /// transmitter is `carrier` (the stream's source station).  The ring leg
  /// of reserve_lan_to_ring, charged to the carrier instead of G1; the
  /// backbone and ingress-ring legs are checked by the destination shard's
  /// gateway.
  [[nodiscard]] util::Result<Reservation> reserve_ring_capacity(
      NodeId carrier, FlowId flow, double rate_per_slot);

  /// Federation ingress leg: backbone -> ring.  Admits only if the ring
  /// can grant G1 the extra l quota (G1 relays backbone egress into the
  /// ring) AND the backbone segment's Premium class has budget for the
  /// stream; both are reserved together.
  [[nodiscard]] util::Result<Reservation> reserve_backbone_to_ring(
      FlowId flow, double rate_per_slot);

  /// Tears a reservation down, returning what it holds: the carrier's
  /// extra l quota (unless the carrier has left the ring, taking its quota
  /// with it) and the far side's Premium budget.
  [[nodiscard]] util::Status release(FlowId flow);

  [[nodiscard]] const std::vector<Reservation>& reservations() const noexcept {
    return reservations_;
  }

  [[nodiscard]] NodeId station() const noexcept { return station_; }

 private:
  /// Every entry point: checks the rate, then the ring leg when `carrier`
  /// is a station (Theorem-1 admission of its extra l quota), then the
  /// Premium leg when `premium` is set (the far side's budget).  Only when
  /// every leg passes does it grant the quota and hold the Premium.
  [[nodiscard]] util::Result<Reservation> reserve(FlowId flow,
                                                  double rate_per_slot,
                                                  NodeId carrier,
                                                  bool premium);

  /// Extra l-quota per SAT round needed to carry `rate_per_slot` through
  /// the carrier, using the expected rotation time (Prop 3) as the round
  /// length.
  [[nodiscard]] std::uint32_t quota_for_rate(double rate_per_slot) const;

  // wrt-lint-allow(cross-shard-handle): gateway bridges its OWN ring; other rings are reached via value-type LAN frames
  Engine* engine_;
  diffserv::BackboneSegment* far_side_;
  NodeId station_;
  std::vector<Reservation> reservations_;
};

}  // namespace wrt::wrtring
