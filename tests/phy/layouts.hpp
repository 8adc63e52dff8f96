// Named topologies shared by the neighbour-table equivalence test and the
// CdmaCodeDigest suite.  They cover what a whole-graph pass over the
// connectivity graph can get wrong:
//   - ring/dense: the bench placements (bench::ring_room and
//     bench::dense_room, inlined to keep tests off the bench headers), up to
//     ring-clean's 1024 stations;
//   - chain/grid: range exactly equal to the spacing, and a grid at the
//     diagonal range, so pairs sit exactly at the range; a chain at 0.1 m
//     spacing, where the x gaps are not exact multiples of the range;
//   - random: random placements with shadowing, one dead station and three
//     failed links; `split` adds a set_partition across the room;
//   - added: a ring with a station added by add_node inside the circle and
//     one added out of everyone's range;
//   - stacked: columns of stations sharing an x coordinate, some of them
//     co-located.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "phy/topology.hpp"
#include "util/rng.hpp"

namespace wrt::layouts {

enum class Layout {
  kRing, kDense, kChain, kFineChain, kGrid, kGridDiagonal, kRandom, kSplit,
  kAdded, kStacked
};

struct LayoutSpec {
  Layout layout;
  std::size_t n;
  std::uint64_t param;
};

inline const char* layout_name(Layout layout) {
  switch (layout) {
    case Layout::kRing: return "ring";
    case Layout::kDense: return "dense";
    case Layout::kChain: return "chain";
    case Layout::kFineChain: return "finechain";
    case Layout::kGrid: return "grid";
    case Layout::kGridDiagonal: return "griddiagonal";
    case Layout::kRandom: return "random";
    case Layout::kSplit: return "split";
    case Layout::kAdded: return "added";
    case Layout::kStacked: return "stacked";
  }
  return "?";
}

inline std::string spec_name(const LayoutSpec& spec) {
  return std::string(layout_name(spec.layout)) + std::to_string(spec.n) +
         "_" + std::to_string(spec.param);
}

/// A random connected placement of `n` stations with shadowing, then one
/// station killed and three links failed, all drawn from `seed`.
inline phy::Topology random_layout(std::size_t n, std::uint64_t seed) {
  const double side = 6.0 * std::sqrt(static_cast<double>(n));
  const double range = 13.0;
  auto positions = phy::placement::random_connected(
      n, phy::Rect{{0.0, 0.0}, {side, side}}, range, seed);
  if (!positions.ok()) throw std::runtime_error(positions.error().message);
  phy::Topology topology(positions.value(), phy::RadioParams{range, 2.0},
                         seed);
  util::RngStream rng(seed, 0x5EA7C);
  topology.set_alive(static_cast<NodeId>(rng.uniform_int(n)), false);
  int failed = 0;
  for (int attempt = 0; attempt < 256 && failed < 3; ++attempt) {
    const auto a = static_cast<NodeId>(rng.uniform_int(n));
    const auto b = static_cast<NodeId>(rng.uniform_int(n));
    if (topology.reachable(a, b)) {
      topology.fail_link(a, b);
      ++failed;
    }
  }
  return topology;
}

inline phy::Topology make_layout(const LayoutSpec& spec) {
  const std::size_t n = spec.n;
  switch (spec.layout) {
    case Layout::kRing: return phy::ring_room(n);
    case Layout::kDense:
      return phy::Topology(phy::placement::circle(n, 5.0),
                           phy::RadioParams{100.0, 0.0});
    case Layout::kChain:
      return phy::Topology(phy::placement::chain(n, 10.0),
                           phy::RadioParams{10.0, 0.0});
    case Layout::kFineChain:
      return phy::Topology(phy::placement::chain(n, 0.1),
                           phy::RadioParams{0.1, 0.0});
    case Layout::kGrid:
      return phy::Topology(phy::placement::grid(n, n, 10.0),
                           phy::RadioParams{10.0, 0.0});
    case Layout::kGridDiagonal:
      return phy::Topology(phy::placement::grid(n, n, 10.0),
                           phy::RadioParams{std::hypot(10.0, 10.0), 0.0});
    case Layout::kRandom: return random_layout(n, spec.param);
    case Layout::kSplit: {
      phy::Topology topology = random_layout(n, spec.param);
      // A wall down the middle of the room.
      std::vector<NodeId> west;
      const double side = 6.0 * std::sqrt(static_cast<double>(n));
      for (NodeId i = 0; i < topology.node_count(); ++i) {
        if (topology.position(i).x < side / 2.0) west.push_back(i);
      }
      topology.set_partition({west});
      return topology;
    }
    case Layout::kAdded: {
      phy::Topology topology = phy::ring_room(n);
      // Just inside the arc between stations 0 and 1, so it is alive and
      // within two hops of several earlier stations.
      const phy::Vec2 a = topology.position(0);
      const phy::Vec2 b = topology.position(1);
      topology.add_node((a + b) * 0.49);
      topology.add_node({1000.0, 1000.0});
      return topology;
    }
    case Layout::kStacked: {
      std::vector<phy::Vec2> positions;
      for (std::size_t i = 0; i < n; ++i) {
        const auto column = static_cast<double>(i % 4);
        const auto level = static_cast<double>((i / 4) % 3);
        positions.push_back({column * 3.0, level * 2.5});
      }
      return phy::Topology(std::move(positions), phy::RadioParams{5.0, 0.0});
    }
  }
  return phy::ring_room(n);
}

/// The layouts both suites run.
inline constexpr LayoutSpec kSharedLayouts[] = {
    {Layout::kRing, 16, 0},         {Layout::kRing, 64, 0},
    {Layout::kRing, 256, 0},        {Layout::kRing, 1024, 0},
    {Layout::kDense, 32, 0},        {Layout::kDense, 64, 0},
    {Layout::kChain, 12, 0},        {Layout::kFineChain, 40, 0},
    {Layout::kGrid, 6, 0},          {Layout::kGridDiagonal, 6, 0},
    {Layout::kRandom, 24, 2},       {Layout::kRandom, 48, 5},
    {Layout::kRandom, 96, 11},      {Layout::kSplit, 24, 8},
    {Layout::kSplit, 48, 1},        {Layout::kSplit, 96, 4},
    {Layout::kAdded, 32, 0},        {Layout::kStacked, 30, 0},
};

}  // namespace wrt::layouts
