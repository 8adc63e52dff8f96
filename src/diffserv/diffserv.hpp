// Differentiated Services substrate (Section 2.3 / Figure 2).
//
// The paper maps WRT-Ring onto the two-bit Diffserv architecture of
// Nichols/Jacobson/Zhang [15]: the guaranteed l quota is Premium, the k
// quota splits into k1 (Assured) and k2 (best-effort).  For the gateway
// scenario (ad hoc ring <-> wired LAN, Figure 2) we need the LAN half:
// per-class token-bucket meters/policers at the edge and a priority
// per-hop behaviour on the LAN link.  This module provides those pieces;
// the ring half (quota bookkeeping, reservation check at station G1) lives
// in wrtring::Gateway.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "sim/stats.hpp"
#include "traffic/traffic.hpp"
#include "util/types.hpp"

namespace wrt::diffserv {

/// Token-bucket meter: `rate` tokens per slot, capacity `burst`.  A packet
/// conforms when one token is available.
class TokenBucket {
 public:
  TokenBucket(double rate_per_slot, double burst);

  /// Advances to `now` and tries to consume one token.
  [[nodiscard]] bool conforms(Tick now);

  [[nodiscard]] double tokens(Tick now);
  [[nodiscard]] double rate() const noexcept { return rate_per_slot_; }

 private:
  void refill(Tick now);

  double rate_per_slot_;
  double burst_;
  double tokens_;
  Tick last_refill_ = 0;
};

/// Per-class policing configuration at a Diffserv edge.
struct EdgePolicy {
  double premium_rate = 0.05;   ///< packets/slot; excess is DROPPED
  double premium_burst = 2.0;
  double assured_rate = 0.10;   ///< excess is demoted to best-effort
  double assured_burst = 8.0;
};

/// Edge conditioner: meters a packet and returns its (possibly demoted)
/// class, or nullopt when the packet must be dropped (out-of-profile
/// Premium, per the two-bit architecture).
class EdgeConditioner {
 public:
  explicit EdgeConditioner(const EdgePolicy& policy);

  [[nodiscard]] std::optional<TrafficClass> condition(
      const traffic::Packet& packet, Tick now);

  [[nodiscard]] std::uint64_t premium_drops() const noexcept {
    return premium_drops_;
  }
  [[nodiscard]] std::uint64_t assured_demotions() const noexcept {
    return assured_demotions_;
  }

 private:
  TokenBucket premium_meter_;
  TokenBucket assured_meter_;
  std::uint64_t premium_drops_ = 0;
  std::uint64_t assured_demotions_ = 0;
};

/// One LAN output link with strict-priority service: Premium > Assured >
/// best-effort, `service_rate` packets per slot, bounded per-class queues.
/// step() must be called once per slot; it appends the packets served this
/// slot to `served` (the caller forwards them to the next hop or the sink).
class PriorityLink {
 public:
  PriorityLink(double service_rate_per_slot, std::size_t queue_capacity);

  /// Enqueues; drops (and records) when the class queue is full.
  // wrt-lint-allow(by-value-frame-param): deliberate sink, moved into queue
  void enqueue(traffic::Packet packet);

  /// Serves the slot; appends served packets to `served`.
  void step(std::vector<traffic::Packet>& served);

  [[nodiscard]] std::size_t queue_depth(TrafficClass cls) const;
  [[nodiscard]] std::uint64_t tail_drops(TrafficClass cls) const;

 private:
  double service_rate_;
  double service_credit_ = 0.0;
  std::size_t capacity_;
  std::array<std::deque<traffic::Packet>, 3> queues_;
  std::array<std::uint64_t, 3> drops_{};
};

/// A chain of strict-priority links (one per hop) and its Premium
/// reservation budget (packets/slot): the Diffserv network on the far side
/// of a ring gateway, which wrtring::Gateway charges for every Premium leg.
/// Packets that cross the last hop are handed back through `step()`'s
/// egress parameter: the federation backbone re-injects them into their
/// destination ring, LanModel absorbs them in its sink.  No edge
/// conditioner: federation crossings are already policed by the rings'
/// l-quota grants, and rejected ones travel best-effort.
class BackboneSegment {
 public:
  BackboneSegment(std::size_t hops, double service_rate_per_slot,
                  std::size_t queue_capacity, double premium_capacity);

  /// Enqueues a packet at the ingress hop.
  void inject(const traffic::Packet& packet);

  /// Advances all hops one slot; appends packets leaving the last hop to
  /// `egress`.
  void step(std::vector<traffic::Packet>& egress);

  /// Admission query for a Premium leg: can the chain carry an extra
  /// Premium stream of `rate_per_slot` within its Premium capacity?
  [[nodiscard]] bool can_reserve_premium(double rate_per_slot) const noexcept {
    return reserved_premium_ + rate_per_slot <= premium_capacity_;
  }
  void reserve_premium(double rate_per_slot) noexcept {
    reserved_premium_ += rate_per_slot;
  }
  void release_premium(double rate_per_slot) noexcept {
    reserved_premium_ -= rate_per_slot;
    if (reserved_premium_ < 0.0) reserved_premium_ = 0.0;
  }
  [[nodiscard]] double reserved_premium() const noexcept {
    return reserved_premium_;
  }

  [[nodiscard]] std::size_t queue_depth() const;

  /// Total per-class tail drops summed over every hop.
  [[nodiscard]] std::uint64_t tail_drops() const;

 private:
  std::vector<PriorityLink> hops_;
  /// What an inner hop served this slot, on its way to the next hop; kept
  /// between slots so a busy hop does not allocate.
  std::vector<traffic::Packet> served_;
  double premium_capacity_;
  double reserved_premium_ = 0.0;
};

/// Minimal Diffserv LAN: an edge conditioner feeding a chain of priority
/// links (one per LAN hop), whose last hop delivers into a sink.  Models
/// the wired network on the far side of gateway G1 in Figure 2; its
/// Premium capacity is the policy's `premium_rate`.
class LanModel {
 public:
  LanModel(const EdgePolicy& policy, std::size_t hops,
           double service_rate_per_slot, std::size_t queue_capacity);

  /// Injects a packet arriving at the LAN edge at `now`.
  void inject(const traffic::Packet& packet, Tick now);

  /// Advances all hops one slot.
  void step(Tick now);

  [[nodiscard]] const traffic::Sink& sink() const noexcept { return sink_; }
  [[nodiscard]] const EdgeConditioner& edge() const noexcept { return edge_; }

  /// The LAN's links and Premium budget: the far side of a LAN gateway.
  [[nodiscard]] BackboneSegment& links() noexcept { return links_; }

 private:
  EdgeConditioner edge_;
  BackboneSegment links_;
  /// What the last hop delivered this slot; kept between slots.
  std::vector<traffic::Packet> delivered_;
  traffic::Sink sink_;
};

}  // namespace wrt::diffserv
