#include "phy/topology.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace wrt::phy {
namespace {

std::pair<NodeId, NodeId> ordered(NodeId a, NodeId b) {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}

}  // namespace

Topology::Topology(std::vector<Vec2> positions, RadioParams radio,
                   std::uint64_t seed)
    : positions_(std::move(positions)),
      alive_(positions_.size(), true),
      radio_(radio),
      seed_(seed) {}

Vec2 Topology::position(NodeId node) const {
  return positions_.at(node);
}

void Topology::set_position(NodeId node, Vec2 pos) {
  positions_.at(node) = pos;
  ++version_;
}

NodeId Topology::add_node(Vec2 pos) {
  positions_.push_back(pos);
  alive_.push_back(true);
  ++version_;
  return static_cast<NodeId>(positions_.size() - 1);
}

void Topology::set_alive(NodeId node, bool is_alive) {
  alive_.at(node) = is_alive;
  ++version_;
}

bool Topology::alive(NodeId node) const { return alive_.at(node); }

void Topology::fail_link(NodeId a, NodeId b) {
  failed_links_.insert(ordered(a, b));
  ++version_;
}

void Topology::restore_link(NodeId a, NodeId b) {
  failed_links_.erase(ordered(a, b));
  ++version_;
}

void Topology::set_partition(const std::vector<std::vector<NodeId>>& groups) {
  // Group 0 is the implicit "everyone else"; named groups start at 1.
  partition_group_.assign(positions_.size(), 0);
  std::int32_t id = 1;
  for (const auto& group : groups) {
    for (const NodeId node : group) {
      if (node < partition_group_.size()) partition_group_[node] = id;
    }
    ++id;
  }
  ++version_;
}

double Topology::effective_range(NodeId a, NodeId b) const {
  if (radio_.shadowing_sigma <= 0.0) return radio_.range;
  // Deterministic per-link shadowing: hash the link into a stream so the
  // same link always sees the same fade.
  const auto [lo, hi] = ordered(a, b);
  util::RngStream stream(seed_,
                         (static_cast<std::uint64_t>(lo) << 32) | hi);
  const double shrink = std::abs(stream.normal(0.0, radio_.shadowing_sigma));
  return std::max(0.0, radio_.range - shrink);
}

bool Topology::reachable(NodeId a, NodeId b) const {
  if (a == b) return false;
  if (a >= positions_.size() || b >= positions_.size()) return false;
  if (!alive_[a] || !alive_[b]) return false;
  if (failed_links_.contains(ordered(a, b))) return false;
  if (!partition_group_.empty() &&
      partition_group_[a] != partition_group_[b]) {
    return false;
  }
  return within_range(positions_[a], positions_[b], effective_range(a, b));
}

std::vector<NodeId> Topology::neighbors(NodeId node) const {
  std::vector<NodeId> result;
  for (NodeId other = 0; other < positions_.size(); ++other) {
    if (reachable(node, other)) result.push_back(other);
  }
  return result;
}

NeighborTable Topology::neighbor_table() const {
  const std::size_t n = positions_.size();
  // A NaN position reaches nothing, and would break the sort.
  std::vector<NodeId> by_x;
  for (NodeId i = 0; i < n; ++i) {
    if (alive_[i] && !std::isnan(positions_[i].x)) by_x.push_back(i);
  }
  std::sort(by_x.begin(), by_x.end(), [this](NodeId a, NodeId b) {
    return positions_[a].x < positions_[b].x;
  });
  // reachable() needs distance <= effective_range(), which never exceeds
  // max(range, 0), and a pair's x gap never exceeds its distance.  The
  // factor 2 is a margin for rounding: the window drops no edge.
  const double window = 2.0 * std::max(0.0, radio_.range);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (std::size_t a = 0; a < by_x.size(); ++a) {
    const double x = positions_[by_x[a]].x;
    for (std::size_t b = a + 1;
         b < by_x.size() && positions_[by_x[b]].x - x <= window; ++b) {
      if (reachable(by_x[a], by_x[b])) edges.emplace_back(by_x[a], by_x[b]);
    }
  }

  NeighborTable table;
  table.offsets_.assign(n + 1, 0);
  for (const auto& [a, b] : edges) {
    ++table.offsets_[a + 1];
    ++table.offsets_[b + 1];
  }
  for (std::size_t i = 0; i < n; ++i) {
    table.offsets_[i + 1] += table.offsets_[i];
  }
  table.ids_.resize(table.offsets_[n]);
  std::vector<std::size_t> cursor(table.offsets_.begin(),
                                  table.offsets_.end() - 1);
  for (const auto& [a, b] : edges) {
    table.ids_[cursor[a]++] = b;
    table.ids_[cursor[b]++] = a;
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::sort(table.ids_.begin() +
                  static_cast<std::ptrdiff_t>(table.offsets_[i]),
              table.ids_.begin() +
                  static_cast<std::ptrdiff_t>(table.offsets_[i + 1]));
  }
  return table;
}

bool Topology::hidden_pair(NodeId a, NodeId c, NodeId receiver) const {
  return reachable(a, receiver) && reachable(c, receiver) && !reachable(a, c);
}

std::vector<std::vector<NodeId>> Topology::components() const {
  const NeighborTable table = neighbor_table();
  std::vector<bool> seen(positions_.size(), false);
  std::vector<std::vector<NodeId>> components;
  // Each search starts at the smallest node not yet seen, so the
  // components come out in order of their smallest member.
  for (NodeId start = 0; start < positions_.size(); ++start) {
    if (seen[start] || !alive_[start]) continue;
    std::vector<NodeId> component;
    std::vector<NodeId> frontier{start};
    seen[start] = true;
    while (!frontier.empty()) {
      const NodeId u = frontier.back();
      frontier.pop_back();
      component.push_back(u);
      for (const NodeId v : table.row(u)) {
        if (!seen[v]) {
          seen[v] = true;
          frontier.push_back(v);
        }
      }
    }
    std::sort(component.begin(), component.end());
    components.push_back(std::move(component));
  }
  return components;
}

bool Topology::min_degree_at_least(std::size_t min_degree) const {
  const NeighborTable table = neighbor_table();
  for (NodeId i = 0; i < positions_.size(); ++i) {
    if (!alive_[i]) continue;
    if (table.row(i).size() < min_degree) return false;
  }
  return true;
}

namespace placement {

std::vector<Vec2> circle(std::size_t n, double radius, Vec2 center) {
  std::vector<Vec2> positions;
  positions.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double angle =
        2.0 * std::numbers::pi * static_cast<double>(i) / static_cast<double>(n);
    positions.push_back(
        {center.x + radius * std::cos(angle), center.y + radius * std::sin(angle)});
  }
  return positions;
}

util::Result<std::vector<Vec2>> random_connected(std::size_t n, Rect area,
                                                 double range,
                                                 std::uint64_t seed,
                                                 std::size_t max_attempts) {
  util::RngStream rng(seed, 0x91ACE);
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    std::vector<Vec2> positions;
    positions.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      positions.push_back({rng.uniform(area.lo.x, area.hi.x),
                           rng.uniform(area.lo.y, area.hi.y)});
    }
    Topology probe(positions, RadioParams{range, 0.0});
    if (probe.connected() && probe.min_degree_at_least(2)) return positions;
  }
  return util::Error::no_ring_possible(
      "random_connected: could not draw a connected min-degree-2 placement");
}

std::vector<Vec2> grid(std::size_t rows, std::size_t cols, double spacing,
                       Vec2 origin) {
  std::vector<Vec2> positions;
  positions.reserve(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      positions.push_back({origin.x + spacing * static_cast<double>(c),
                           origin.y + spacing * static_cast<double>(r)});
    }
  }
  return positions;
}

std::vector<Vec2> chain(std::size_t n, double spacing, Vec2 origin) {
  std::vector<Vec2> positions;
  positions.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    positions.push_back({origin.x + spacing * static_cast<double>(i), origin.y});
  }
  return positions;
}

}  // namespace placement

Topology ring_room(std::size_t n, double range_hops) {
  const double radius = 10.0;
  const double chord =
      2.0 * radius * std::sin(std::numbers::pi / static_cast<double>(n));
  return Topology(placement::circle(n, radius),
                  RadioParams{chord * range_hops, 0.0});
}

}  // namespace wrt::phy
