#include "phy/topology.hpp"

#include <gtest/gtest.h>

namespace wrt::phy {
namespace {

Topology three_in_range() {
  return Topology({{0, 0}, {10, 0}, {20, 0}}, RadioParams{12.0, 0.0});
}

TEST(Topology, ReachabilityIsSymmetric) {
  const Topology t = three_in_range();
  EXPECT_TRUE(t.reachable(0, 1));
  EXPECT_TRUE(t.reachable(1, 0));
  EXPECT_FALSE(t.reachable(0, 2));
  EXPECT_FALSE(t.reachable(2, 0));
}

TEST(Topology, SelfIsNotReachable) {
  const Topology t = three_in_range();
  EXPECT_FALSE(t.reachable(1, 1));
}

TEST(Topology, DeadNodesUnreachable) {
  Topology t = three_in_range();
  t.set_alive(1, false);
  EXPECT_FALSE(t.reachable(0, 1));
  EXPECT_FALSE(t.reachable(1, 2));
  EXPECT_FALSE(t.alive(1));
  t.set_alive(1, true);
  EXPECT_TRUE(t.reachable(0, 1));
}

TEST(Topology, FailedLinkBlocksBothDirections) {
  Topology t = three_in_range();
  t.fail_link(0, 1);
  EXPECT_FALSE(t.reachable(0, 1));
  EXPECT_FALSE(t.reachable(1, 0));
  t.restore_link(1, 0);  // order-insensitive
  EXPECT_TRUE(t.reachable(0, 1));
}

TEST(Topology, NeighborsLists) {
  const Topology t = three_in_range();
  EXPECT_EQ(t.neighbors(0), std::vector<NodeId>{1});
  EXPECT_EQ(t.neighbors(1), (std::vector<NodeId>{0, 2}));
}

TEST(Topology, HiddenPairDetection) {
  const Topology t = three_in_range();
  // 0 and 2 both reach 1 but not each other: classic hidden terminals.
  EXPECT_TRUE(t.hidden_pair(0, 2, 1));
  EXPECT_FALSE(t.hidden_pair(0, 1, 2));
}

TEST(Topology, ChainPlacementIsHiddenTerminalLadder) {
  const auto positions = placement::chain(5, 10.0);
  const Topology t(positions, RadioParams{12.0, 0.0});
  for (NodeId i = 0; i + 2 < 5; ++i) {
    EXPECT_TRUE(t.hidden_pair(i, i + 2, i + 1));
  }
}

TEST(Topology, ConnectedDetectsPartitions) {
  Topology t = three_in_range();
  EXPECT_TRUE(t.connected());
  t.fail_link(0, 1);
  EXPECT_FALSE(t.connected());
}

TEST(Topology, ConnectedIgnoresDeadNodes) {
  Topology t({{0, 0}, {10, 0}, {100, 0}}, RadioParams{12.0, 0.0});
  EXPECT_FALSE(t.connected());
  EXPECT_EQ(t.components(), (std::vector<std::vector<NodeId>>{{0, 1}, {2}}));
  t.set_alive(2, false);
  EXPECT_TRUE(t.connected());
  EXPECT_EQ(t.components(), (std::vector<std::vector<NodeId>>{{0, 1}}));
}

TEST(Topology, MinDegreeCheck) {
  const auto circle = placement::circle(8, 10.0);
  const Topology t(circle, RadioParams{9.0, 0.0});
  EXPECT_TRUE(t.min_degree_at_least(2));
}

TEST(Topology, AddNodeExtends) {
  Topology t = three_in_range();
  const NodeId added = t.add_node({10.0, 5.0});
  EXPECT_EQ(added, 3u);
  EXPECT_EQ(t.node_count(), 4u);
  EXPECT_TRUE(t.reachable(added, 1));
}

TEST(Topology, ShadowingShrinksRangeDeterministically) {
  const std::vector<Vec2> positions{{0, 0}, {29, 0}};
  const Topology plain(positions, RadioParams{30.0, 0.0}, 7);
  const Topology shadowed(positions, RadioParams{30.0, 5.0}, 7);
  EXPECT_TRUE(plain.reachable(0, 1));
  // Same seed twice gives the same verdict.
  const Topology shadowed2(positions, RadioParams{30.0, 5.0}, 7);
  EXPECT_EQ(shadowed.reachable(0, 1), shadowed2.reachable(0, 1));
}

TEST(Placement, CircleOnPerimeter) {
  const auto positions = placement::circle(12, 20.0, {5.0, 5.0});
  ASSERT_EQ(positions.size(), 12u);
  for (const auto& p : positions) {
    EXPECT_NEAR(distance(p, {5.0, 5.0}), 20.0, 1e-9);
  }
}

TEST(Placement, GridSpacing) {
  const auto positions = placement::grid(2, 3, 5.0, {1.0, 1.0});
  ASSERT_EQ(positions.size(), 6u);
  EXPECT_EQ(positions[0], (Vec2{1.0, 1.0}));
  EXPECT_EQ(positions[5], (Vec2{11.0, 6.0}));
}

TEST(Placement, RandomConnectedSatisfiesInvariants) {
  const auto result = placement::random_connected(
      16, Rect{{0, 0}, {50, 50}}, 20.0, 123);
  ASSERT_TRUE(result.ok());
  const Topology t(result.value(), RadioParams{20.0, 0.0});
  EXPECT_TRUE(t.connected());
  EXPECT_TRUE(t.min_degree_at_least(2));
}

TEST(Placement, RandomConnectedFailsWhenImpossible) {
  // Range far too small for 20 nodes in a huge area.
  const auto result = placement::random_connected(
      20, Rect{{0, 0}, {10000, 10000}}, 1.0, 5, 8);
  EXPECT_FALSE(result.ok());
}

TEST(Geometry, RectContainsAndClamp) {
  const Rect r{{0, 0}, {10, 10}};
  EXPECT_TRUE(r.contains({5, 5}));
  EXPECT_FALSE(r.contains({11, 5}));
  EXPECT_EQ(r.clamp({15, -3}), (Vec2{10, 0}));
}

TEST(Geometry, VectorArithmetic) {
  const Vec2 a{1, 2}, b{3, 4};
  EXPECT_EQ(a + b, (Vec2{4, 6}));
  EXPECT_EQ(b - a, (Vec2{2, 2}));
  EXPECT_EQ(a * 2.0, (Vec2{2, 4}));
  EXPECT_DOUBLE_EQ((Vec2{3, 4}).norm(), 5.0);
}

}  // namespace
}  // namespace wrt::phy
