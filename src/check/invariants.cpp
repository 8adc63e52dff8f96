#include "check/invariants.hpp"

#include <cassert>
#include <string>
#include <utility>

#include "analysis/bounds.hpp"
#include "wrtring/engine.hpp"

namespace wrt::check {
namespace {

// Registry order; must match the check_* dispatch in run().
constexpr const char* kCheckNames[] = {
    "ring-lockstep",      "position-bijection", "single-sat",
    "rap-mutex",          "quota-conservation", "link-pipeline",
    "theorem1-oracle",    "theorem2-oracle",    "guard_no_stale_rec",
    "wtr_no_flap_readmit", "revertive_position_restored",
};
constexpr std::size_t kCheckCount = std::size(kCheckNames);

std::string node_str(NodeId node) { return std::to_string(node); }

}  // namespace

InvariantAuditor::InvariantAuditor(const wrtring::Engine& engine,
                                   AuditOptions options)
    : engine_(engine),
      options_(options),
      per_check_runs_(kCheckCount, 0),
      per_check_violations_(kCheckCount, 0) {}

std::vector<std::string> InvariantAuditor::check_names() {
  return {kCheckNames, kCheckNames + kCheckCount};
}

std::uint64_t InvariantAuditor::violation_count(
    const std::string& check) const {
  for (std::size_t i = 0; i < kCheckCount; ++i) {
    if (check == kCheckNames[i]) return per_check_violations_[i];
  }
  return 0;
}

std::vector<CheckStats> InvariantAuditor::check_stats() const {
  std::vector<CheckStats> stats;
  stats.reserve(kCheckCount);
  for (std::size_t i = 0; i < kCheckCount; ++i) {
    stats.push_back({kCheckNames[i], per_check_runs_[i],
                     per_check_violations_[i]});
  }
  return stats;
}

void InvariantAuditor::install(wrtring::Engine& engine,
                               std::int64_t every_k_slots) {
  assert(&engine == &engine_);
  engine.set_audit_hook([this](const char* event) { run(event); },
                        every_k_slots);
}

std::size_t InvariantAuditor::run(const char* event) {
  ++audits_;
  observe_disturbances();

  std::size_t found = 0;
  Details details;
  const auto execute = [&](std::size_t index, auto&& check) {
    details.clear();
    ++per_check_runs_[index];
    check(details);
    per_check_violations_[index] += details.size();
    total_violations_ += details.size();
    found += details.size();
    for (std::string& detail : details) {
      if (violations_.size() >= options_.max_recorded) break;
      violations_.push_back(
          {kCheckNames[index], std::move(detail), engine_.now_, event});
    }
  };

  execute(0, [&](Details& d) { check_ring_lockstep(d); });
  execute(1, [&](Details& d) { check_position_bijection(d); });
  execute(2, [&](Details& d) { check_single_sat(d); });
  execute(3, [&](Details& d) { check_rap_mutex(d); });
  execute(4, [&](Details& d) { check_quota_conservation(d); });
  execute(5, [&](Details& d) { check_link_pipeline(d); });
  if (options_.theorem_oracles) {
    execute(6, [&](Details& d) { check_theorem1_oracle(d); });
    execute(7, [&](Details& d) { check_theorem2_oracle(d); });
  }
  execute(8, [&](Details& d) { check_guard_no_stale_rec(d); });
  execute(9, [&](Details& d) { check_wtr_no_flap_readmit(d); });
  execute(10, [&](Details& d) { check_revertive_position_restored(d); });
  return found;
}

void InvariantAuditor::observe_disturbances() {
  const wrtring::Engine& e = engine_;
  bool disturbed = false;

  if (e.membership_epoch_ != last_epoch_) {
    last_epoch_ = e.membership_epoch_;
    disturbed = true;
  }
  if (e.stats_.sat_losses_detected != last_losses_) {
    last_losses_ = e.stats_.sat_losses_detected;
    disturbed = true;
  }
  if (e.stats_.ring_rebuilds != last_rebuilds_) {
    last_rebuilds_ = e.stats_.ring_rebuilds;
    disturbed = true;
  }
  if (e.stats_.sat_recoveries != last_recoveries_) {
    last_recoveries_ = e.stats_.sat_recoveries;
    disturbed = true;
  }
  // An in-progress fault is a disturbance even before its counter ticks.
  if (e.sat_state_ == wrtring::SatState::kLost ||
      e.sat_state_ == wrtring::SatState::kRebuilding) {
    disturbed = true;
  }
  // Quota renegotiation has no counter; it shows up as a bound change.
  const std::int64_t bound = analysis::sat_time_bound(e.ring_params());
  if (bound != last_bound_ || e.ring_.size() != last_ring_size_) {
    last_bound_ = bound;
    last_ring_size_ = e.ring_.size();
    disturbed = true;
  }
  if (disturbed) oracle_horizon_ = e.now_;
}

void InvariantAuditor::check_ring_lockstep(Details& out) const {
  const wrtring::Engine& e = engine_;
  const std::size_t R = e.ring_.size();
  const wrtring::SlotKernel& k = e.kernel_;
  if (k.ids_.size() != R || k.last_sat_arrival_.size() != R) {
    out.push_back("station/control columns out of lockstep with ring: ring=" +
                  std::to_string(R) + " stations=" +
                  std::to_string(k.ids_.size()) + " control=" +
                  std::to_string(k.last_sat_arrival_.size()));
    return;  // positional comparison below would be meaningless
  }
  if (k.link_columns() != R) {
    out.push_back("link columns out of lockstep with ring: ring=" +
                  std::to_string(R) + " links=" +
                  std::to_string(k.link_columns()));
  }
  for (std::size_t p = 0; p < R; ++p) {
    const NodeId expected = e.ring_.station_at(p);
    if (k.ids_[p] != expected) {
      out.push_back("station column misaligned at position " +
                    std::to_string(p) + ": holds " +
                    node_str(k.ids_[p]) + ", ring says " +
                    node_str(expected));
    }
  }
}

void InvariantAuditor::check_position_bijection(Details& out) const {
  const wrtring::Engine& e = engine_;
  const std::size_t R = e.ring_.size();
  std::size_t mapped = 0;
  for (std::size_t n = 0; n < e.position_index_.size(); ++n) {
    const std::int32_t pos = e.position_index_[n];
    if (pos < 0) continue;
    ++mapped;
    const auto node = static_cast<NodeId>(n);
    if (static_cast<std::size_t>(pos) >= R ||
        e.ring_.station_at(static_cast<std::size_t>(pos)) != node) {
      out.push_back("position index maps node " + node_str(node) +
                    " to position " + std::to_string(pos) +
                    ", which the ring does not corroborate");
    }
  }
  if (mapped != R) {
    out.push_back("position index covers " + std::to_string(mapped) +
                  " nodes but the ring has " + std::to_string(R));
  }
  for (std::size_t p = 0; p < R; ++p) {
    const NodeId node = e.ring_.station_at(p);
    if (e.station_position(node) != static_cast<std::int32_t>(p)) {
      out.push_back("member " + node_str(node) + " at ring position " +
                    std::to_string(p) + " resolves to position " +
                    std::to_string(e.station_position(node)));
    }
  }
}

void InvariantAuditor::check_single_sat(Details& out) const {
  const wrtring::Engine& e = engine_;
  switch (e.sat_state_) {
    case wrtring::SatState::kHeld:
      if (!e.ring_.contains(e.sat_location_)) {
        out.push_back("SAT held at " + node_str(e.sat_location_) +
                      ", which is not a ring member");
      }
      break;
    case wrtring::SatState::kInTransit: {
      if (!e.ring_.contains(e.sat_location_)) {
        out.push_back("SAT in transit toward " + node_str(e.sat_location_) +
                      ", which is not a ring member");
      }
      if (e.sat_arrival_tick_ == kNeverTick) {
        out.push_back("SAT in transit with no arrival tick");
      } else if (e.sat_arrival_tick_ < e.now_) {
        out.push_back("SAT arrival tick " +
                      std::to_string(e.sat_arrival_tick_) +
                      " is in the past (now=" + std::to_string(e.now_) + ")");
      } else if (e.sat_arrival_tick_ - e.now_ >
                 slots_to_ticks(e.config_.sat_hop_latency_slots)) {
        out.push_back("SAT arrival tick " +
                      std::to_string(e.sat_arrival_tick_) +
                      " is further out than one hop latency");
      }
      break;
    }
    case wrtring::SatState::kLost:
      if (e.sat_lost_at_ == kNeverTick) {
        out.push_back("SAT lost without a recorded loss instant");
      }
      break;
    case wrtring::SatState::kRebuilding:
      break;
  }
}

void InvariantAuditor::check_rap_mutex(Details& out) const {
  const wrtring::Engine& e = engine_;
  // The owner flag is cleared when the SAT completes its round back at the
  // owner; a departed owner must not leave it dangling (that would block
  // every future RAP).
  if (e.sat_.rap_owner != kInvalidNode &&
      !e.ring_.contains(e.sat_.rap_owner)) {
    out.push_back("RAP owner flag names " + node_str(e.sat_.rap_owner) +
                  ", which is not a ring member");
  }
  if (!e.in_rap()) return;
  if (e.rap_ingress_ == kInvalidNode) return;  // RAP already wound down
  if (!e.ring_.contains(e.rap_ingress_)) {
    out.push_back("RAP in progress with non-member ingress " +
                  node_str(e.rap_ingress_));
  }
  // Exclusivity: while the original RAP's SAT is still the live signal
  // (owner flag intact, not a SAT_REC), it must be held at the ingress —
  // a plain SAT anywhere else during the RAP breaks the mutex.  A recovery
  // relaunched mid-RAP resets the owner flag, so it is excluded here.
  if (e.sat_state_ == wrtring::SatState::kHeld && !e.sat_.is_rec &&
      e.sat_.rap_owner == e.rap_ingress_ &&
      e.sat_location_ != e.rap_ingress_) {
    out.push_back("RAP mutex broken: SAT held at " +
                  node_str(e.sat_location_) + " while ingress " +
                  node_str(e.rap_ingress_) + " owns the RAP");
  }
}

void InvariantAuditor::check_quota_conservation(Details& out) const {
  const wrtring::Engine& e = engine_;
  const wrtring::SlotKernel& k = e.kernel_;
  for (std::size_t p = 0; p < k.ids_.size(); ++p) {
    if (k.rt_pck_[p] > k.quota_[p].l) {
      out.push_back("station " + node_str(k.ids_[p]) + " RT_PCK=" +
                    std::to_string(k.rt_pck_[p]) + " exceeds l=" +
                    std::to_string(k.quota_[p].l));
    }
    if (k.nrt_pck_[p] > k.quota_[p].k) {
      out.push_back("station " + node_str(k.ids_[p]) + " NRT_PCK=" +
                    std::to_string(k.nrt_pck_[p]) + " exceeds k=" +
                    std::to_string(k.quota_[p].k));
    }
    if (k.k1_assured_[p] > k.quota_[p].k) {
      out.push_back("station " + node_str(k.ids_[p]) + " k1=" +
                    std::to_string(k.k1_assured_[p]) + " exceeds k=" +
                    std::to_string(k.quota_[p].k));
    }
  }
  if (e.stats_.sink.total_delivered() > e.stats_.data_transmissions) {
    out.push_back("more deliveries (" +
                  std::to_string(e.stats_.sink.total_delivered()) +
                  ") than transmissions (" +
                  std::to_string(e.stats_.data_transmissions) + ")");
  }
}

void InvariantAuditor::check_link_pipeline(Details& out) const {
  const wrtring::Engine& e = engine_;
  const wrtring::SlotKernel& k = e.kernel_;
  // The rotation calendar ends every flight at exactly one scheduled
  // arrival.  Entries left behind by frames lost to a channel draw carry a
  // tag their column no longer holds and do not count.
  std::vector<std::uint32_t> pending(k.link_columns(), 0);
  for (const auto& bucket : e.calendar_) {
    for (const auto& event : bucket) {
      if (event.column < pending.size() &&
          k.link_tag_[event.column] == event.tag) {
        ++pending[event.column];
      }
    }
  }
  std::uint64_t occupied = 0;
  for (std::size_t p = 0; p < k.link_columns(); ++p) {
    const std::size_t c = k.link_col(p);
    if (k.link_tag_[c] == 0) continue;
    ++occupied;
    if (pending[c] != 1) {
      out.push_back("link " + std::to_string(p) + " carries a frame with " +
                    std::to_string(pending[c]) +
                    " pending terminal events (expected 1)");
    }
  }
  if (occupied != e.in_flight_) {
    out.push_back("engine counts " + std::to_string(e.in_flight_) +
                  " frames in flight but " + std::to_string(occupied) +
                  " link columns are occupied");
  }
}

void InvariantAuditor::check_theorem1_oracle(Details& out) const {
  const wrtring::Engine& e = engine_;
  const Tick bound_ticks =
      slots_to_ticks(analysis::sat_time_bound(e.ring_params()));
  for (std::size_t p = 0; p < e.kernel_.arrival_history_.size(); ++p) {
    const std::vector<Tick>& history = e.kernel_.arrival_history_[p];
    for (std::size_t i = 1; i < history.size(); ++i) {
      // Only spans recorded entirely after the last disturbance are covered
      // by the current ring's bound (strict >: an arrival at the
      // disturbance tick itself predates the new regime).
      if (history[i - 1] <= oracle_horizon_) continue;
      const Tick delta = history[i] - history[i - 1];
      if (delta >= bound_ticks) {  // Theorem 1 is a strict bound
        out.push_back(
            "station " + node_str(e.ring_.station_at(p)) +
            " SAT inter-arrival " + std::to_string(ticks_to_slots(delta)) +
            " slots >= Theorem-1 bound " +
            std::to_string(ticks_to_slots(bound_ticks)) + " slots");
      }
    }
  }
}

void InvariantAuditor::check_theorem2_oracle(Details& out) const {
  const wrtring::Engine& e = engine_;
  const std::int64_t window = options_.theorem2_window;
  if (window <= 0) return;
  const Tick bound_ticks = slots_to_ticks(
      analysis::sat_time_n_rounds_bound(e.ring_params(), window));
  const auto v = static_cast<std::size_t>(window);
  for (std::size_t p = 0; p < e.kernel_.arrival_history_.size(); ++p) {
    const std::vector<Tick>& history = e.kernel_.arrival_history_[p];
    if (history.size() <= v) continue;
    for (std::size_t i = 0; i + v < history.size(); ++i) {
      if (history[i] <= oracle_horizon_) continue;
      const Tick span = history[i + v] - history[i];
      if (span > bound_ticks) {  // Theorem 2 is a non-strict bound
        out.push_back(
            "station " + node_str(e.ring_.station_at(p)) + " " +
            std::to_string(window) + "-round span " +
            std::to_string(ticks_to_slots(span)) +
            " slots > Theorem-2 bound " +
            std::to_string(ticks_to_slots(bound_ticks)) + " slots");
      }
    }
  }
}

void InvariantAuditor::check_guard_no_stale_rec(Details& out) const {
  // The RecoveryFsm latches acceptance of a signal-fail request while its
  // own guard window was open — by construction that must never happen
  // (guard-active requests map to kSuppress in the transition table).
  const wrtring::RecoveryFsm& fsm = engine_.fsm_;
  if (fsm.accepted_sf_during_guard_) {
    out.push_back(
        "RecoveryFsm started a recovery inside its own guard window "
        "(stale SAT_REC suppression violated)");
  }
}

void InvariantAuditor::check_wtr_no_flap_readmit(Details& out) const {
  // admit() records the worst (continuous-healthy - required hold) slack;
  // a negative slack means a flapping station was re-admitted before its
  // WTR/WTB hold-off was continuously satisfied.
  const wrtring::RecoveryFsm& fsm = engine_.fsm_;
  if (fsm.min_readmit_slack_slots_ != wrtring::RecoveryFsm::kNoAdmission &&
      fsm.min_readmit_slack_slots_ < 0) {
    out.push_back("a rejoin candidate was admitted " +
                  std::to_string(-fsm.min_readmit_slack_slots_) +
                  " slots before its WTR/WTB hold-off lapsed");
  }
}

void InvariantAuditor::check_revertive_position_restored(Details& out) const {
  // Validated only while the membership epoch the insertion was recorded
  // under is still current — any later churn legitimately moves stations.
  const wrtring::RecoveryFsm& fsm = engine_.fsm_;
  const wrtring::Engine& e = engine_;
  if (!fsm.tuning_.revertive) return;
  if (fsm.last_revert_.node == kInvalidNode) return;
  if (fsm.last_revert_.epoch != e.membership_epoch_) return;
  if (!e.ring_.contains(fsm.last_revert_.node) ||
      !e.ring_.contains(fsm.last_revert_.anchor) ||
      e.ring_.predecessor(fsm.last_revert_.node) != fsm.last_revert_.anchor) {
    out.push_back("revertive re-insertion of station " +
                  node_str(fsm.last_revert_.node) +
                  " did not restore it after anchor " +
                  node_str(fsm.last_revert_.anchor));
  }
}

}  // namespace wrt::check
