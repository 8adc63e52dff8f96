#include "wrtring/scenario.hpp"

#include <algorithm>
#include <iterator>

namespace wrt::wrtring {
namespace {

using fault::FaultKind;

/// The log text of an event.
std::string describe(const fault::FaultEvent& event) {
  const std::string a = std::to_string(event.a);
  const std::string link = a + "-" + std::to_string(event.b);
  switch (event.kind) {
    case FaultKind::kCrash: return "kill station " + a;
    case FaultKind::kStall: return "stall station " + a;
    case FaultKind::kResume: return "resume station " + a;
    case FaultKind::kLeave: return "graceful leave station " + a;
    case FaultKind::kLinkDegrade: return "degrade link " + link;
    case FaultKind::kLinkBreak: return "fail link " + link;
    case FaultKind::kLinkHeal: return "heal link " + link;
    case FaultKind::kLinkRestore: return "restore link " + link;
    case FaultKind::kPartition:
      return "partition into " + std::to_string(event.groups.size()) +
             " groups";
    case FaultKind::kHealPartition: return "heal partition";
    case FaultKind::kDropSat: return "drop SAT";
    case FaultKind::kDropControl: {
      static constexpr const char* kNames[] = {"NEXT_FREE", "JOIN_REQ",
                                               "JOIN_ACK"};
      return event.control_msg < std::size(kNames)
                 ? std::string("drop ") + kNames[event.control_msg]
                 : "drop control message " +
                       std::to_string(event.control_msg);
    }
    case FaultKind::kJoin: return "join request station " + a;
    case FaultKind::kFlap: return "flap link " + link;
    case FaultKind::kForceSwitch: return "force switch station " + a;
    case FaultKind::kClearSwitch: return "clear forced switch station " + a;
    case FaultKind::kMark: return event.label;
  }
  return "unknown";
}

/// Applies one event to the engine and its topology.  A refused event
/// changes nothing and returns why.
util::Status apply(Engine& engine, phy::Topology& topology,
                   const fault::FaultEvent& event) {
  if (util::Status status = fault::check_event(event, topology.node_count());
      !status.ok()) {
    return status;
  }
  switch (event.kind) {
    case FaultKind::kJoin:
      // A scripted join means the station has arrived / powered on;
      // chaos plans park joiner candidates as dead nodes until then.
      topology.set_alive(event.a, true);
      engine.request_join(event.a, event.quota);
      break;
    case FaultKind::kLeave: return engine.request_leave(event.a);
    case FaultKind::kCrash: engine.kill_station(event.a); break;
    case FaultKind::kStall: engine.stall_station(event.a); break;
    case FaultKind::kResume: engine.resume_station(event.a); break;
    case FaultKind::kDropSat: engine.drop_sat_once(); break;
    case FaultKind::kDropControl:
      engine.drop_control_once(
          static_cast<Engine::ControlMsg>(event.control_msg));
      break;
    case FaultKind::kLinkBreak: topology.fail_link(event.a, event.b); break;
    case FaultKind::kLinkDegrade:
      engine.degrade_link(event.a, event.b, event.ge);
      break;
    case FaultKind::kLinkHeal:
      // link-heal undoes whichever hit the link: the GE override, the hard
      // break, or both.  link-restore undoes the break alone.
      engine.heal_link(event.a, event.b);
      [[fallthrough]];
    case FaultKind::kLinkRestore:
      topology.restore_link(event.a, event.b);
      break;
    case FaultKind::kPartition: topology.set_partition(event.groups); break;
    case FaultKind::kHealPartition: topology.clear_partition(); break;
    case FaultKind::kForceSwitch: return engine.force_switch(event.a);
    case FaultKind::kClearSwitch: engine.clear_force_switch(event.a); break;
    case FaultKind::kFlap:  // stored expanded (flap_link_at)
    case FaultKind::kMark:
      break;
  }
  return util::Status::success();
}

/// "force-switch" -> "force switch refused: <why>".
std::string refusal(FaultKind kind, const util::Status& status) {
  std::string verb = fault::to_string(kind);
  std::replace(verb.begin(), verb.end(), '-', ' ');
  return verb + " refused: " + status.error().message;
}

}  // namespace

Scenario& Scenario::add(fault::FaultEvent event) {
  events_.push_back(std::move(event));
  return *this;
}

Scenario& Scenario::join_at(std::int64_t slot, NodeId node, Quota quota) {
  return add({.slot = slot, .kind = FaultKind::kJoin, .a = node,
              .quota = quota});
}

Scenario& Scenario::leave_at(std::int64_t slot, NodeId node) {
  return add({.slot = slot, .kind = FaultKind::kLeave, .a = node});
}

Scenario& Scenario::kill_at(std::int64_t slot, NodeId node) {
  return add({.slot = slot, .kind = FaultKind::kCrash, .a = node});
}

Scenario& Scenario::stall_at(std::int64_t slot, NodeId node) {
  return add({.slot = slot, .kind = FaultKind::kStall, .a = node});
}

Scenario& Scenario::resume_at(std::int64_t slot, NodeId node) {
  return add({.slot = slot, .kind = FaultKind::kResume, .a = node});
}

Scenario& Scenario::drop_sat_at(std::int64_t slot) {
  return add({.slot = slot, .kind = FaultKind::kDropSat});
}

Scenario& Scenario::drop_control_at(std::int64_t slot,
                                    Engine::ControlMsg which) {
  return add({.slot = slot, .kind = FaultKind::kDropControl,
              .control_msg = static_cast<std::uint8_t>(which)});
}

Scenario& Scenario::fail_link_at(std::int64_t slot, NodeId a, NodeId b) {
  return add({.slot = slot, .kind = FaultKind::kLinkBreak, .a = a, .b = b});
}

Scenario& Scenario::restore_link_at(std::int64_t slot, NodeId a, NodeId b) {
  return add({.slot = slot, .kind = FaultKind::kLinkRestore, .a = a, .b = b});
}

Scenario& Scenario::degrade_link_at(std::int64_t slot, NodeId a, NodeId b,
                                    const fault::GeParams& params) {
  return add({.slot = slot, .kind = FaultKind::kLinkDegrade, .a = a, .b = b,
              .ge = params});
}

Scenario& Scenario::heal_link_at(std::int64_t slot, NodeId a, NodeId b) {
  return add({.slot = slot, .kind = FaultKind::kLinkHeal, .a = a, .b = b});
}

Scenario& Scenario::partition_at(std::int64_t slot,
                                 std::vector<std::vector<NodeId>> groups) {
  return add({.slot = slot, .kind = FaultKind::kPartition,
              .groups = std::move(groups)});
}

Scenario& Scenario::heal_partition_at(std::int64_t slot) {
  return add({.slot = slot, .kind = FaultKind::kHealPartition});
}

Scenario& Scenario::flap_link_at(std::int64_t slot, NodeId a, NodeId b,
                                 std::int64_t period_slots,
                                 std::uint32_t duty_pct,
                                 std::uint32_t cycles) {
  // Down for the first duty_pct percent of each period (at least 1 slot,
  // at most period - 1 so the link is also provably up every cycle).
  const std::int64_t down = std::clamp<std::int64_t>(
      period_slots * duty_pct / 100, 1, period_slots - 1);
  for (std::uint32_t c = 0; c < cycles; ++c) {
    const std::int64_t start = slot + static_cast<std::int64_t>(c) *
                                          period_slots;
    fail_link_at(start, a, b);
    restore_link_at(start + down, a, b);
  }
  return *this;
}

Scenario& Scenario::force_switch_at(std::int64_t slot, NodeId node) {
  return add({.slot = slot, .kind = FaultKind::kForceSwitch, .a = node});
}

Scenario& Scenario::clear_switch_at(std::int64_t slot, NodeId node) {
  return add({.slot = slot, .kind = FaultKind::kClearSwitch, .a = node});
}

Scenario& Scenario::mark_at(std::int64_t slot, std::string label) {
  return add({.slot = slot, .kind = FaultKind::kMark,
              .label = std::move(label)});
}

Scenario& Scenario::apply_plan(const fault::FaultPlan& plan) {
  for (const fault::FaultEvent& event : plan.events) {
    if (event.kind == FaultKind::kFlap) {
      flap_link_at(event.slot, event.a, event.b, event.period_slots,
                   event.duty_pct, event.cycles);
    } else {
      add(event);
    }
  }
  return *this;
}

std::vector<Scenario::LogEntry> Scenario::run(
    Engine& engine, phy::Topology& topology, std::int64_t until_slot,
    phy::MobilityModel* mobility, std::int64_t mobility_period_slots) {
  std::stable_sort(events_.begin() + static_cast<std::ptrdiff_t>(next_event_),
                   events_.end(),
                   [](const fault::FaultEvent& x, const fault::FaultEvent& y) {
                     return x.slot < y.slot;
                   });

  std::vector<LogEntry> log;
  const auto record = [&](const std::string& what) {
    log.push_back({engine.now_slots(), what, engine.virtual_ring().size(),
                   engine.sat_state()});
  };

  std::size_t last_ring_size = engine.virtual_ring().size();
  std::int64_t last_mobility = engine.now_slots();

  while (engine.now_slots() < until_slot) {
    for (; next_event_ < events_.size() &&
           events_[next_event_].slot <= engine.now_slots();
         ++next_event_) {
      const fault::FaultEvent& event = events_[next_event_];
      if (const util::Status status = apply(engine, topology, event);
          !status.ok()) {
        record(refusal(event.kind, status));
      }
      record(describe(event));
    }

    if (mobility != nullptr &&
        engine.now_slots() - last_mobility >= mobility_period_slots) {
      mobility->step(topology, engine.now(),
                     slots_to_ticks(engine.now_slots() - last_mobility));
      last_mobility = engine.now_slots();
    }

    engine.step();

    if (engine.virtual_ring().size() != last_ring_size) {
      record(engine.virtual_ring().size() > last_ring_size
                 ? "ring grew"
                 : "ring shrank");
      last_ring_size = engine.virtual_ring().size();
    }
  }
  return log;
}

}  // namespace wrt::wrtring
