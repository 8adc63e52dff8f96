// Node registry, radio model and connectivity graph.
//
// The paper's network scenario (Section 2.1) is an indoor ad hoc network
// where each station can reach at least two others over a single hop and
// hidden terminals exist (a station may not hear every other station).  A
// unit-disk radio over 2-D positions reproduces exactly that structure:
// i and j are neighbours iff distance(i, j) <= range.  Link failure
// injection lets tests and the recovery benches break specific links.
#pragma once

#include <set>
#include <span>
#include <vector>

#include "phy/geometry.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace wrt::phy {

/// Radio parameters.  Unit-disk: perfect reception within `range`, nothing
/// beyond.  An optional shadowing term randomly shrinks the effective range
/// per link to model indoor clutter.
struct RadioParams {
  double range = 30.0;          ///< metres
  double shadowing_sigma = 0.0; ///< std-dev of per-link range shrink (m)
};

/// Every node's one-hop neighbours as flat rows (offsets + ids), built by
/// Topology::neighbor_table() for the passes that walk the whole graph.
/// Row i lists exactly what Topology::neighbors(i) returns, in ascending id
/// order.  A snapshot: it does not follow later changes to the topology.
class NeighborTable {
 public:
  [[nodiscard]] std::size_t node_count() const noexcept {
    return offsets_.size() - 1;
  }
  /// The neighbours of `node`, which must be < node_count().
  [[nodiscard]] std::span<const NodeId> row(NodeId node) const noexcept {
    return {ids_.data() + offsets_[node], ids_.data() + offsets_[node + 1]};
  }

 private:
  friend class Topology;
  std::vector<std::size_t> offsets_{0};  ///< row i is [offsets_[i], [i+1])
  std::vector<NodeId> ids_;
};

/// A static snapshot of who-can-hear-whom.  Recomputed after mobility steps
/// or forced link failures.
class Topology {
 public:
  Topology(std::vector<Vec2> positions, RadioParams radio,
           std::uint64_t seed = 1);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return positions_.size();
  }
  [[nodiscard]] Vec2 position(NodeId node) const;
  void set_position(NodeId node, Vec2 pos);

  /// Adds a node; returns its id.
  NodeId add_node(Vec2 pos);

  /// Marks a node dead (battery out / left the area).  Dead nodes hear and
  /// reach nothing.
  void set_alive(NodeId node, bool alive);
  [[nodiscard]] bool alive(NodeId node) const;

  /// Forces a specific link down regardless of distance (failure injection).
  void fail_link(NodeId a, NodeId b);
  void restore_link(NodeId a, NodeId b);

  /// Splits the network into isolated groups (a wall slides in / the
  /// spectrum is jammed between rooms): nodes in different groups are
  /// unreachable regardless of distance until clear_partition().  Nodes not
  /// named in any group share an implicit group of their own.
  void set_partition(const std::vector<std::vector<NodeId>>& groups);
  void clear_partition() {
    partition_group_.clear();
    ++version_;
  }

  /// True iff a and b can communicate over a single hop right now.
  [[nodiscard]] bool reachable(NodeId a, NodeId b) const;

  /// All current one-hop neighbours of `node`: one scan over every node,
  /// for one-off queries.
  [[nodiscard]] std::vector<NodeId> neighbors(NodeId node) const;

  /// Every node's neighbours at once, for passes over the whole graph.  One
  /// sweep over the alive nodes sorted by x tests a pair with reachable()
  /// only when its x gap is at most 2 * range: reachable() implies
  /// distance <= range, so the window drops no edge, and reachable() still
  /// decides every pair.  Built on each call; the topology keeps no cache.
  [[nodiscard]] NeighborTable neighbor_table() const;

  /// Hidden-terminal test: c is hidden from a w.r.t. receiver b when both
  /// a and c reach b but a and c do not reach each other.
  [[nodiscard]] bool hidden_pair(NodeId a, NodeId c, NodeId receiver) const;

  /// Every connected component of the alive subgraph, each sorted, in
  /// order of its smallest member.
  [[nodiscard]] std::vector<std::vector<NodeId>> components() const;

  /// True iff the alive subgraph is connected.
  [[nodiscard]] bool connected() const { return components().size() <= 1; }

  /// True iff every alive node has at least `min_degree` alive neighbours
  /// (the paper requires >= 2 for ring formation).
  [[nodiscard]] bool min_degree_at_least(std::size_t min_degree) const;

  [[nodiscard]] const RadioParams& radio() const noexcept { return radio_; }

  /// Monotonic change counter, bumped by every mutator (positions, liveness,
  /// link failures, partitions).  Connectivity queries are pure functions of
  /// the topology state, so callers may cache reachable()/alive() results
  /// keyed on this version and stay exact.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

 private:
  [[nodiscard]] double effective_range(NodeId a, NodeId b) const;

  std::vector<Vec2> positions_;
  std::vector<bool> alive_;
  RadioParams radio_;
  std::set<std::pair<NodeId, NodeId>> failed_links_;
  std::vector<std::int32_t> partition_group_;  ///< empty = no partition
  std::uint64_t seed_;
  std::uint64_t version_ = 0;
};

/// Deterministic placements used across tests/benches/examples.
namespace placement {

/// N nodes evenly spaced on a circle of the given radius: every node reaches
/// exactly its near neighbours when range is slightly above the chord length.
[[nodiscard]] std::vector<Vec2> circle(std::size_t n, double radius,
                                       Vec2 center = {0.0, 0.0});

/// Uniform random placement in a rect; retries until the unit-disk graph is
/// connected with min degree 2 (up to `max_attempts`).
[[nodiscard]] util::Result<std::vector<Vec2>> random_connected(
    std::size_t n, Rect area, double range, std::uint64_t seed,
    std::size_t max_attempts = 256);

/// Grid placement (rows x cols, given spacing).
[[nodiscard]] std::vector<Vec2> grid(std::size_t rows, std::size_t cols,
                                     double spacing, Vec2 origin = {0.0, 0.0});

/// A chain: nodes on a line, spaced so only adjacent nodes are in range —
/// the canonical hidden-terminal arrangement.
[[nodiscard]] std::vector<Vec2> chain(std::size_t n, double spacing,
                                      Vec2 origin = {0.0, 0.0});

}  // namespace placement

/// The ring room: `n` stations evenly spaced on a circle of radius 10 m,
/// radio range `range_hops` chord lengths.  At 2.4 a station reaches two
/// ring hops, so the ring always forms and stays repairable after one
/// station is cut out; just above 1 each station hears only its two ring
/// neighbours.
[[nodiscard]] Topology ring_room(std::size_t n, double range_hops = 2.4);

}  // namespace wrt::phy
