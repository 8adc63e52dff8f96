#include "wrtring/config.hpp"

namespace wrt::wrtring {

util::Status Config::validate() const {
  if (sat_hop_latency_slots < 1) {
    return util::Error::invalid_argument("sat_hop_latency_slots must be >= 1");
  }
  if (rap_policy != RapPolicy::kDisabled) {
    // The earing phase must fit the NEXT_FREE / JOIN_REQ / JOIN_ACK
    // exchange (three message slots, Section 2.4.1).
    if (t_ear_slots < 3) {
      return util::Error::invalid_argument(
          "t_ear_slots must be >= 3 for the join handshake");
    }
    if (t_update_slots < 1) {
      return util::Error::invalid_argument(
          "t_update_slots must be >= 1 to apply the insertion");
    }
  }
  if (k1_assured > default_quota.k) {
    return util::Error::invalid_argument(
        "k1_assured cannot exceed the k quota");
  }
  if (const auto status = channel.validate(); !status.ok()) return status;
  if (auto_rejoin && rap_policy == RapPolicy::kDisabled) {
    return util::Error::invalid_argument(
        "auto_rejoin needs an active RAP policy to re-enter through");
  }
  if (queue_capacity == 0) {
    return util::Error::invalid_argument("queue_capacity must be >= 1");
  }
  if (rebuild_base_slots < 0 || rebuild_per_station_slots < 0) {
    return util::Error::invalid_argument("rebuild costs must be >= 0");
  }
  if (sat_timeout_slots < 0) {
    return util::Error::invalid_argument(
        "sat_timeout_slots must be >= 0 (0 = Theorem-1 bound)");
  }
  if (guard_slots < 0 || wtr_slots < 0 || wtb_slots < 0) {
    return util::Error::invalid_argument(
        "recovery timers (guard/wtr/wtb) must be >= 0");
  }
  if ((wtr_slots > 0 || revertive) && !auto_rejoin) {
    return util::Error::invalid_argument(
        "wtr_slots/revertive govern re-admission and need auto_rejoin");
  }
  return util::Status::success();
}

}  // namespace wrt::wrtring
