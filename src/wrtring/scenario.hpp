// Scenario scripting: deterministic timelines of topology events.
//
// Experiments and examples repeatedly need "run N slots, then a station
// dies, then a joiner appears, then a link drops ...".  A Scenario is that
// script: a sorted list of timed fault::FaultEvents applied to an Engine
// (plus its Topology and an optional mobility model) while the simulation
// advances, with an event log recording what happened and when — so tests
// can assert on the protocol's externally visible timeline.  The builders
// below and apply_plan all append FaultEvents; one switch applies them.
#pragma once

#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "phy/mobility.hpp"
#include "wrtring/engine.hpp"

namespace wrt::wrtring {

class Scenario {
 public:
  Scenario& join_at(std::int64_t slot, NodeId node, Quota quota);
  Scenario& leave_at(std::int64_t slot, NodeId node);
  Scenario& kill_at(std::int64_t slot, NodeId node);
  Scenario& stall_at(std::int64_t slot, NodeId node);
  Scenario& resume_at(std::int64_t slot, NodeId node);
  Scenario& drop_sat_at(std::int64_t slot);
  Scenario& drop_control_at(std::int64_t slot, Engine::ControlMsg which);
  Scenario& fail_link_at(std::int64_t slot, NodeId a, NodeId b);
  /// Undoes fail_link_at only; a degrade_link_at on the link stays.
  Scenario& restore_link_at(std::int64_t slot, NodeId a, NodeId b);
  /// Gilbert–Elliott override on link a <-> b (all purposes).
  Scenario& degrade_link_at(std::int64_t slot, NodeId a, NodeId b,
                            const fault::GeParams& params);
  /// Undoes both degrade_link_at and fail_link_at on the link.
  Scenario& heal_link_at(std::int64_t slot, NodeId a, NodeId b);
  Scenario& partition_at(std::int64_t slot,
                         std::vector<std::vector<NodeId>> groups);
  Scenario& heal_partition_at(std::int64_t slot);
  /// Link a <-> b cycles down/up `cycles` times from `slot`: each cycle is
  /// `period_slots` long with the link down for its first `duty_pct`
  /// percent (>= 1 slot).  Expands into fail/restore pairs at build time.
  Scenario& flap_link_at(std::int64_t slot, NodeId a, NodeId b,
                         std::int64_t period_slots, std::uint32_t duty_pct,
                         std::uint32_t cycles);
  /// Operator-forced protection switch on `node` (Engine::force_switch).
  Scenario& force_switch_at(std::int64_t slot, NodeId node);
  /// Releases the forced switch (Engine::clear_force_switch; WTB starts).
  Scenario& clear_switch_at(std::int64_t slot, NodeId node);
  /// Free-form marker copied into the log (phase labels).
  Scenario& mark_at(std::int64_t slot, std::string label);

  /// Appends every event of a FaultPlan (a kFlap expands as flap_link_at
  /// does); this is how scripted/randomized plans (tools/wrt_chaos, tests)
  /// become live engine faults.
  Scenario& apply_plan(const fault::FaultPlan& plan);

  struct LogEntry {
    std::int64_t slot = 0;
    std::string what;
    std::size_t ring_size = 0;
    SatState sat_state = SatState::kLost;
  };

  /// Runs the engine to `until_slot`, applying events as their time comes
  /// and stepping `mobility` (when non-null) every `mobility_period_slots`.
  /// Returns the event log (scripted events plus automatic entries for
  /// ring-size changes observed between steps).  An event the engine or
  /// topology refuses (a leave it cannot start, a station the topology
  /// does not have) is logged as "<verb> refused: <why>" before its own
  /// entry.  A later call resumes where this one stopped: no event is
  /// applied twice, and events added in between run when their time comes.
  std::vector<LogEntry> run(Engine& engine, phy::Topology& topology,
                            std::int64_t until_slot,
                            phy::MobilityModel* mobility = nullptr,
                            std::int64_t mobility_period_slots = 100);

 private:
  Scenario& add(fault::FaultEvent event);

  std::vector<fault::FaultEvent> events_;
  std::size_t next_event_ = 0;  ///< events_[0, next_event_) are applied
};

}  // namespace wrt::wrtring
