#include <gtest/gtest.h>

#include "ring/virtual_ring.hpp"

namespace wrt::ring {
namespace {

TEST(LargestComponent, WholeGraphWhenConnected) {
  const phy::Topology t(phy::placement::circle(6, 10.0),
                        phy::RadioParams{11.0, 0.0});
  const auto component = largest_component(t);
  EXPECT_EQ(component.size(), 6u);
}

TEST(LargestComponent, PicksBiggerSide) {
  // Two clusters: 4 nodes near the origin, 2 nodes far away.
  std::vector<phy::Vec2> positions{{0, 0}, {5, 0}, {0, 5}, {5, 5},
                                   {100, 100}, {105, 100}};
  const phy::Topology t(positions, phy::RadioParams{8.0, 0.0});
  const auto component = largest_component(t);
  EXPECT_EQ(component.size(), 4u);
  for (const NodeId n : component) EXPECT_LT(n, 4u);

  // The bigger side wins when the smaller one holds node 0, and of two
  // equally large sides the one with the smallest member wins.
  const phy::Topology reversed({{100, 100}, {105, 100}, {0, 0}, {5, 0},
                                {0, 5}, {5, 5}},
                               phy::RadioParams{8.0, 0.0});
  EXPECT_EQ(largest_component(reversed), (std::vector<NodeId>{2, 3, 4, 5}));
  const phy::Topology tie({{100, 100}, {0, 0}, {105, 100}, {5, 0}},
                          phy::RadioParams{8.0, 0.0});
  EXPECT_EQ(largest_component(tie), (std::vector<NodeId>{0, 2}));
}

TEST(LargestComponent, SkipsDeadNodes) {
  phy::Topology t(phy::placement::circle(6, 10.0),
                  phy::RadioParams{11.0, 0.0});
  t.set_alive(0, false);
  t.set_alive(1, false);
  const auto component = largest_component(t);
  EXPECT_EQ(component.size(), 4u);
}

TEST(LargestComponent, EmptyWhenAllDead) {
  phy::Topology t(phy::placement::circle(3, 10.0),
                  phy::RadioParams{11.0, 0.0});
  for (NodeId n = 0; n < 3; ++n) t.set_alive(n, false);
  EXPECT_TRUE(largest_component(t).empty());
}

TEST(BuildRingOver, RestrictsToMembers) {
  const phy::Topology t(phy::placement::circle(8, 10.0),
                        phy::RadioParams{16.0, 0.0});  // ~2-hop range
  const auto result = build_ring_over(t, {0, 1, 2, 3, 4, 5});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 6u);
  EXPECT_FALSE(result.value().contains(6));
  EXPECT_FALSE(result.value().contains(7));
  EXPECT_TRUE(result.value().valid_over(t));
}

TEST(BuildRingOver, RejectsDeadMember) {
  phy::Topology t(phy::placement::circle(6, 10.0),
                  phy::RadioParams{11.0, 0.0});
  t.set_alive(2, false);
  const auto result = build_ring_over(t, {0, 1, 2, 3});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, util::Error::Code::kInvalidArgument);
}

TEST(BuildRingOver, RejectsDuplicateMember) {
  const phy::Topology t(phy::placement::circle(6, 10.0),
                        phy::RadioParams{11.0, 0.0});
  const auto result = build_ring_over(t, {0, 1, 2, 3, 2});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, util::Error::Code::kInvalidArgument);
}

TEST(BuildRingOver, RejectsUnknownMember) {
  const phy::Topology t(phy::placement::circle(6, 10.0),
                        phy::RadioParams{11.0, 0.0});
  const auto result = build_ring_over(t, {0, 1, 2, 6});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, util::Error::Code::kInvalidArgument);
}

TEST(BuildRingOver, FailsOnDisconnectedMembers) {
  std::vector<phy::Vec2> positions{{0, 0}, {5, 0}, {0, 5},
                                   {100, 100}, {105, 100}, {100, 105}};
  const phy::Topology t(positions, phy::RadioParams{8.0, 0.0});
  EXPECT_FALSE(build_ring_over(t, {0, 1, 3, 4}).ok());
}

TEST(BuildRingOver, ComposesWithLargestComponent) {
  // The recovery path: survivors of a partition form a ring among
  // themselves.
  std::vector<phy::Vec2> positions = phy::placement::circle(6, 10.0);
  positions.push_back({200, 200});  // a straggler
  const phy::Topology t(positions, phy::RadioParams{11.0, 0.0});
  const auto result = build_ring_over(t, largest_component(t));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 6u);
  EXPECT_FALSE(result.value().contains(6));
}

}  // namespace
}  // namespace wrt::ring
