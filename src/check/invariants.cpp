#include "check/invariants.hpp"

#include <cassert>
#include <string>
#include <utility>

#include "analysis/bounds.hpp"
#include "wrtring/engine.hpp"

namespace wrt::check {
namespace {

// Window n of the Theorem-2 oracle (spans of n consecutive rotations).
constexpr std::int64_t kTheorem2Window = 4;
// Recorded-violation cap; counting continues past it.
constexpr std::size_t kMaxRecorded = 256;

std::string node_str(NodeId node) { return std::to_string(node); }

}  // namespace

InvariantAuditor::InvariantAuditor(const wrtring::Engine& engine,
                                   AuditOptions options)
    : engine_(engine), options_(options) {
  for (std::string& name : check_names()) {
    stats_.push_back({std::move(name), 0, 0});
  }
}

std::vector<std::string> InvariantAuditor::check_names() {
  std::vector<std::string> names;
  for (const auto& check : wrtring::Engine::kInvariantChecks) {
    names.emplace_back(check.name);
  }
  // The stateful oracles run after the structural checks (see run()).
  names.emplace_back("theorem1-oracle");
  names.emplace_back("theorem2-oracle");
  return names;
}

std::uint64_t InvariantAuditor::violation_count(
    const std::string& check) const {
  for (const CheckStats& stats : stats_) {
    if (stats.name == check) return stats.violations;
  }
  return 0;
}

std::vector<CheckStats> InvariantAuditor::check_stats() const {
  return stats_;
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
  // Tallies the violations the check at `index` just appended to details.
  const auto tally = [&](std::size_t index) {
    CheckStats& stats = stats_[index];
    ++stats.runs;
    stats.violations += details.size();
    total_violations_ += details.size();
    found += details.size();
    for (std::string& detail : details) {
      if (violations_.size() >= kMaxRecorded) break;
      violations_.push_back(
          {stats.name, std::move(detail), engine_.now_, event});
    }
    details.clear();
  };

  std::size_t index = 0;
  for (const auto& check : wrtring::Engine::kInvariantChecks) {
    check.fn(engine_, details);
    tally(index++);
  }
  if (options_.theorem_oracles) {
    check_theorem1_oracle(details);
    tally(index++);
    check_theorem2_oracle(details);
    tally(index);
  }
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

void InvariantAuditor::check_theorem1_oracle(Details& out) const {
  const wrtring::Engine& e = engine_;
  const Tick bound_ticks =
      slots_to_ticks(analysis::sat_time_bound(e.ring_params()));
  for (std::size_t p = 0; p < e.kernel_.size(); ++p) {
    const wrtring::SlotKernel::ArrivalView history = e.kernel_.arrivals(p);
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
  const Tick bound_ticks = slots_to_ticks(
      analysis::sat_time_n_rounds_bound(e.ring_params(), kTheorem2Window));
  const auto v = static_cast<std::size_t>(kTheorem2Window);
  for (std::size_t p = 0; p < e.kernel_.size(); ++p) {
    const wrtring::SlotKernel::ArrivalView history = e.kernel_.arrivals(p);
    for (std::size_t i = 0; i + v < history.size(); ++i) {
      if (history[i] <= oracle_horizon_) continue;
      const Tick span = history[i + v] - history[i];
      if (span > bound_ticks) {  // Theorem 2 is a non-strict bound
        out.push_back(
            "station " + node_str(e.ring_.station_at(p)) + " " +
            std::to_string(kTheorem2Window) + "-round span " +
            std::to_string(ticks_to_slots(span)) +
            " slots > Theorem-2 bound " +
            std::to_string(ticks_to_slots(bound_ticks)) + " slots");
      }
    }
  }
}

}  // namespace wrt::check
