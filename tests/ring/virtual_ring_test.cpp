#include "ring/virtual_ring.hpp"

#include <gtest/gtest.h>

#include <set>

namespace wrt::ring {
namespace {

TEST(VirtualRing, PositionArithmetic) {
  const VirtualRing ring({5, 2, 9, 7});
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.station_at(0), 5u);
  EXPECT_EQ(ring.station_at(4), 5u);  // modular
  EXPECT_EQ(ring.position_of(9), 2u);
  EXPECT_EQ(ring.successor(7), 5u);
  EXPECT_EQ(ring.predecessor(5), 7u);
}

TEST(VirtualRing, ContainsAndThrows) {
  const VirtualRing ring({1, 2, 3});
  EXPECT_TRUE(ring.contains(2));
  EXPECT_FALSE(ring.contains(9));
  EXPECT_THROW((void)ring.position_of(9), std::out_of_range);
}

TEST(VirtualRing, RejectsDuplicates) {
  EXPECT_THROW(VirtualRing({1, 2, 1}), std::invalid_argument);
}

TEST(VirtualRing, InsertAfter) {
  VirtualRing ring({1, 2, 3});
  ring.insert_after(2, 9);
  EXPECT_EQ(ring.successor(2), 9u);
  EXPECT_EQ(ring.successor(9), 3u);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_THROW(ring.insert_after(1, 9), std::invalid_argument);
}

TEST(VirtualRing, InsertAfterLastWrapsCorrectly) {
  VirtualRing ring({1, 2, 3});
  ring.insert_after(3, 4);
  EXPECT_EQ(ring.successor(3), 4u);
  EXPECT_EQ(ring.successor(4), 1u);
}

TEST(VirtualRing, RemoveJoinsNeighbours) {
  VirtualRing ring({1, 2, 3, 4});
  ring.remove(3);
  EXPECT_EQ(ring.successor(2), 4u);
  EXPECT_EQ(ring.predecessor(4), 2u);
  EXPECT_EQ(ring.size(), 3u);
}

TEST(VirtualRing, ValidOverRequiresReachableLinks) {
  const phy::Topology t = phy::ring_room(6, 1.1);
  const VirtualRing good({0, 1, 2, 3, 4, 5});
  EXPECT_TRUE(good.valid_over(t));
  const VirtualRing skips({0, 2, 4, 1, 3, 5});  // chords out of range
  EXPECT_FALSE(skips.valid_over(t));
}

TEST(VirtualRing, ValidOverRejectsTinyRings) {
  const phy::Topology t = phy::ring_room(6, 1.1);
  EXPECT_FALSE(VirtualRing({0, 1}).valid_over(t));
}

TEST(BuildRing, CirclePlacements) {
  for (const std::size_t n : {3u, 4u, 8u, 16u, 48u}) {
    const phy::Topology t = phy::ring_room(n, 1.1);
    const auto result = build_ring(t);
    ASSERT_TRUE(result.ok()) << "n = " << n;
    EXPECT_EQ(result.value().size(), n);
    EXPECT_TRUE(result.value().valid_over(t));
  }
}

TEST(BuildRing, RandomPlacements) {
  // Not every connected min-degree-2 unit-disk graph is Hamiltonian, so
  // this sweep uses seeds whose placements admit a ring (the non-ringable
  // case is covered by BuildRing.FailsWhenNoCycleExists).
  for (const std::uint64_t seed : {11u, 22u, 33u, 45u, 54u}) {
    const auto placement = phy::placement::random_connected(
        14, phy::Rect{{0, 0}, {40, 40}}, 18.0, seed);
    ASSERT_TRUE(placement.ok());
    const phy::Topology t(placement.value(), phy::RadioParams{18.0, 0.0});
    const auto result = build_ring(t);
    ASSERT_TRUE(result.ok()) << "seed " << seed;
    EXPECT_TRUE(result.value().valid_over(t)) << "seed " << seed;
  }
}

TEST(BuildRing, ExcludesDeadStations) {
  phy::Topology t = phy::ring_room(8, 1.9);  // range covers 2 hops
  t.set_alive(3, false);
  const auto result = build_ring(t);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 7u);
  EXPECT_FALSE(result.value().contains(3));
  EXPECT_TRUE(result.value().valid_over(t));
}

TEST(BuildRing, FailsBelowThreeStations) {
  const phy::Topology t(phy::placement::chain(2, 5.0),
                        phy::RadioParams{6.0, 0.0});
  EXPECT_FALSE(build_ring(t).ok());
}

TEST(BuildRing, FailsWhenNoCycleExists) {
  // A star: centre reaches everyone, leaves reach only the centre.
  const std::vector<phy::Vec2> positions{{0, 0}, {10, 0}, {-10, 0}, {0, 10}};
  const phy::Topology t(positions, phy::RadioParams{11.0, 0.0});
  const auto result = build_ring(t);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, util::Error::Code::kNoRingPossible);
}

TEST(BuildRing, BacktrackingSolvesNonConvexPlacement) {
  // An L-shaped corridor: angular sort around the centroid fails, the
  // Hamiltonian search must succeed.
  std::vector<phy::Vec2> positions;
  for (int i = 0; i < 5; ++i) {
    positions.push_back({static_cast<double>(i) * 8.0, 0.0});
    positions.push_back({static_cast<double>(i) * 8.0, 6.0});
  }
  const phy::Topology t(positions, phy::RadioParams{10.5, 0.0});
  const auto result = build_ring(t);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().valid_over(t));
}

}  // namespace
}  // namespace wrt::ring
