// Multi-ring coordination — the paper's deferred case.
//
// Section 2.4.1: a requester that reaches only one ring station "cannot
// join the network (in this case it may form another ring, but we don't
// present a detailed analysis of this case in this paper)".  This module
// implements that sketched extension: it partitions the alive topology
// into ring-able groups, runs one independent WRT-Ring Engine per group
// (each with its own SAT, quotas and CDMA codes — distance-2 assignment
// already keeps neighbouring rings from colliding), steps them in
// lock-step, and aggregates statistics.  Stations whose component cannot
// host a ring (fewer than 3 members or no Hamiltonian cycle) are reported
// as unserved.
//
// No inter-ring bridging is attempted here — the coordinator's value is
// serving every serveable pocket of a fragmented deployment and
// quantifying what fraction of stations that covers.  Bridging (gateways,
// the Diffserv backbone, reservation brokering) lives one layer up in the
// sharded federation engine (wrtring/federation.hpp, DESIGN.md §12).
#pragma once

#include <memory>
#include <vector>

#include "phy/topology.hpp"
#include "util/result.hpp"
#include "wrtring/engine.hpp"

namespace wrt::wrtring {

class MultiRingCoordinator {
 public:
  /// `topology` must outlive the coordinator.
  MultiRingCoordinator(phy::Topology* topology, Config config,
                       std::uint64_t seed);

  /// Partitions the alive graph and starts one engine per ring-able group.
  /// Succeeds if at least one ring forms.
  [[nodiscard]] util::Status init();

  /// Advances every ring by one slot.
  void step();
  void run_slots(std::int64_t n);

  [[nodiscard]] std::size_t ring_count() const noexcept {
    return engines_.size();
  }
  [[nodiscard]] Engine& ring(std::size_t index) { return *engines_.at(index); }
  [[nodiscard]] const Engine& ring(std::size_t index) const {
    return *engines_.at(index);
  }

  /// The ring engine whose virtual ring contains `node`, or nullptr when
  /// no ring does.  Asks the engines' rings, so the answer is current
  /// through every join, cut-out, leave and re-formation.
  [[nodiscard]] Engine* ring_of(NodeId node);

  /// Stations alive but in no engine's ring, ascending — including stations
  /// placed in the topology after init().
  [[nodiscard]] std::vector<NodeId> unserved() const;

  /// Fraction of alive stations that are ring members.
  [[nodiscard]] double coverage() const;

  /// Aggregate deliveries across rings.
  [[nodiscard]] std::uint64_t total_delivered() const;

 private:
  /// Splits a connected component into ring-able groups: tries the whole
  /// component first, then greedily peels off stations that block the
  /// Hamiltonian search (lowest-degree first) until a ring forms or the
  /// group is too small.  `table` is the topology's neighbour table.
  void form_rings_over(const phy::NeighborTable& table,
                       std::vector<NodeId> component);

  phy::Topology* topology_;
  Config config_;
  std::uint64_t seed_;
  std::vector<std::unique_ptr<Engine>> engines_;
};

}  // namespace wrt::wrtring
