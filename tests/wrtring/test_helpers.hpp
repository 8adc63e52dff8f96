// Shared fixtures for WRT-Ring engine tests.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "phy/topology.hpp"
#include "telemetry/journal.hpp"
#include "wrtring/engine.hpp"

namespace wrt::wrtring::testing {

/// A ring over phy::ring_room(n, range_hops), initialised.  A `journal`
/// is attached before init(), so it also holds the init-time SAT launch.
struct Harness {
  Harness(std::size_t n, Config config, std::uint64_t seed = 1,
          double range_hops = 2.4, telemetry::Journal* journal = nullptr)
      : topology(phy::ring_room(n, range_hops)),
        engine(&topology, std::move(config), seed) {
    engine.set_journal(journal);
    const auto status = engine.init();
    if (!status.ok()) {
      throw std::runtime_error("engine init failed: " +
                               status.error().message);
    }
  }

  phy::Topology topology;
  Engine engine;
};

/// The journal's records of `kind`, in timeline order.
inline std::vector<std::pair<NodeId, telemetry::JournalEvent>> of_kind(
    const telemetry::Journal& journal, telemetry::JournalKind kind) {
  std::vector<std::pair<NodeId, telemetry::JournalEvent>> result;
  for (const auto& record : journal.timeline()) {
    if (record.second.kind == kind) result.push_back(record);
  }
  return result;
}

/// A real-time flow from station `src` to the diametrically opposite
/// station (worst-case ring distance).
inline traffic::FlowSpec rt_flow(FlowId id, NodeId src, std::size_t n,
                                 double period_slots = 8.0,
                                 std::int64_t deadline_slots = 10000) {
  traffic::FlowSpec spec;
  spec.id = id;
  spec.src = src;
  spec.dst = static_cast<NodeId>((src + n / 2) % n);
  spec.cls = TrafficClass::kRealTime;
  spec.kind = traffic::ArrivalKind::kCbr;
  spec.period_slots = period_slots;
  spec.deadline_slots = deadline_slots;
  return spec;
}

inline traffic::FlowSpec be_flow(FlowId id, NodeId src, std::size_t n,
                                 double rate_per_slot = 0.2) {
  traffic::FlowSpec spec;
  spec.id = id;
  spec.src = src;
  spec.dst = static_cast<NodeId>((src + 1) % n);
  spec.cls = TrafficClass::kBestEffort;
  spec.kind = traffic::ArrivalKind::kPoisson;
  spec.rate_per_slot = rate_per_slot;
  return spec;
}

}  // namespace wrt::wrtring::testing
