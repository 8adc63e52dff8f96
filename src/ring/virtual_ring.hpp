// Virtual ring over the connectivity graph.
//
// Section 2.1: "WRT-Ring requires the stations to form a virtual ring...
// it is required that each station can communicate with, at least, two
// stations over a single hop.  The implementation of the virtual ring goes
// beyond the design of a MAC protocol, since routing protocols can be used
// for this purpose."  This module is that routing substrate: it finds a
// cyclic order in which consecutive stations are one-hop reachable
// (a Hamiltonian cycle of the unit-disk graph), validates rings against a
// topology, and provides the repair primitives the MAC uses — insert a
// joining station between two consecutive members (Section 2.4.1) and cut
// a failed station out (Section 2.5).
#pragma once

#include <optional>
#include <vector>

#include "phy/topology.hpp"
#include "util/result.hpp"
#include "util/types.hpp"

namespace wrt::ring {

/// A cyclic order of stations.  Position arithmetic is modulo size().
class VirtualRing {
 public:
  VirtualRing() = default;
  explicit VirtualRing(std::vector<NodeId> order);

  [[nodiscard]] std::size_t size() const noexcept { return order_.size(); }
  [[nodiscard]] bool empty() const noexcept { return order_.empty(); }

  /// Station at ring position `pos` (mod size()).
  [[nodiscard]] NodeId station_at(std::size_t pos) const;

  /// Ring position of `node`; throws std::out_of_range if absent.
  [[nodiscard]] std::size_t position_of(NodeId node) const;

  /// Non-throwing variant: nullopt when `node` is not a ring member.  The
  /// engine's membership paths use this to update their position-indexed
  /// storage in lockstep with ring mutations.
  [[nodiscard]] std::optional<std::size_t> find_position(
      NodeId node) const noexcept;

  [[nodiscard]] bool contains(NodeId node) const noexcept;

  /// Downstream neighbour (the station the SAT is forwarded to).
  [[nodiscard]] NodeId successor(NodeId node) const;
  /// Upstream neighbour.
  [[nodiscard]] NodeId predecessor(NodeId node) const;

  /// Inserts `newcomer` immediately after `existing` (Section 2.4.1: the new
  /// station enters between the ingress station i and station i+1).
  void insert_after(NodeId existing, NodeId newcomer);

  /// Removes a station, joining its neighbours (Section 2.5 cut-out).
  void remove(NodeId node);

  /// True iff every consecutive pair is mutually reachable in `topology`.
  [[nodiscard]] bool valid_over(const phy::Topology& topology) const;

  [[nodiscard]] const std::vector<NodeId>& order() const noexcept {
    return order_;
  }

 private:
  std::vector<NodeId> order_;
};

/// Attempts to build a ring over all alive nodes.  Tries a cheap geometric
/// heuristic (angular sort around the centroid) first, then a bounded
/// backtracking Hamiltonian-cycle search.  Fails with kNoRingPossible when
/// no cycle exists or the search budget is exhausted.
[[nodiscard]] util::Result<VirtualRing> build_ring(
    const phy::Topology& topology, std::size_t backtrack_budget = 200000);

/// Same, restricted to the given member set.  Used by ring re-formation,
/// which can only recruit stations that heard the broadcast — i.e. the
/// initiator's connected component.  Fails with kInvalidArgument when a
/// member is not a node of `topology`, is dead, or is named twice.  The
/// search starts from members.front().
[[nodiscard]] util::Result<VirtualRing> build_ring_over(
    const phy::Topology& topology, std::vector<NodeId> members,
    std::size_t backtrack_budget = 200000);

/// The largest connected component of the alive subgraph.
[[nodiscard]] std::vector<NodeId> largest_component(
    const phy::Topology& topology);

}  // namespace wrt::ring
