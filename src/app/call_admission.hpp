// Call-level admission control over the MAC's real-time reservation path.
//
// Section 2.4.1's admission check, lifted to application terms: a voice
// call asks for one frame per packetisation period with a playout deadline,
// and the controller translates that into a wrtring::SessionRequest against
// the ring's Theorem-3 feasibility test.  The MAC-level deadline handed to
// the reservation is the playout deadline minus a transit allowance (slots
// the frame spends crossing the ring after winning channel access), so the
// guarantee the MAC signs is the part it actually controls.
//
// The controller records the admitted-vs-offered frontier — after each
// offer, how many calls asked and how many hold reservations — which is the
// capacity curve bench_voice_capacity plots.
#pragma once

#include <cstdint>
#include <vector>

#include "app/voice_call.hpp"
#include "util/types.hpp"
#include "wrtring/admission.hpp"

namespace wrt::app {

class CallAdmission {
 public:
  /// `controller` must outlive this object.  `transit_allowance_slots` is
  /// subtracted from the playout deadline to form the MAC access-delay
  /// deadline (callers typically use ring size + 2).
  CallAdmission(wrtring::AdmissionController* controller,
                std::int64_t transit_allowance_slots);

  /// Offers one call; returns true iff the ring reserved quota for it.
  /// A call whose MAC deadline would be non-positive is rejected outright.
  bool offer(const VoiceCall& call, const VoiceCallParams& params);

  /// Releases a previously admitted call's reservation.
  void release(FlowId flow);

  [[nodiscard]] bool is_admitted(FlowId flow) const;

  /// One point per offer(): cumulative calls offered and calls holding a
  /// reservation at that moment.
  struct FrontierPoint {
    std::size_t offered = 0;
    std::size_t admitted = 0;
  };
  [[nodiscard]] const std::vector<FrontierPoint>& frontier() const noexcept {
    return frontier_;
  }

  [[nodiscard]] std::size_t offered_count() const noexcept {
    return offered_;
  }
  [[nodiscard]] std::size_t admitted_count() const noexcept {
    return admitted_.size();
  }

 private:
  wrtring::AdmissionController* controller_;
  std::int64_t transit_allowance_slots_;
  std::size_t offered_ = 0;
  std::vector<FlowId> admitted_;
  std::vector<FrontierPoint> frontier_;
};

}  // namespace wrt::app
