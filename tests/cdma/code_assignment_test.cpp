#include "cdma/code_assignment.hpp"

#include <gtest/gtest.h>


namespace wrt::cdma {
namespace {

/// Range just above the neighbour chord: each station hears exactly its
/// two ring neighbours, so 2-hop neighbourhoods have 4 members.
phy::Topology circle_topology(std::size_t n) { return phy::ring_room(n, 1.1); }

TEST(GreedyAssignment, SatisfiesDistanceTwoOnCircle) {
  for (const std::size_t n : {4u, 8u, 16u, 32u}) {
    const phy::Topology t = circle_topology(n);
    const CodeMap codes = assign_greedy_two_hop(t);
    EXPECT_TRUE(verify_two_hop_distinct(t, codes)) << "n = " << n;
  }
}

TEST(GreedyAssignment, SatisfiesDistanceTwoOnRandom) {
  const auto placement = phy::placement::random_connected(
      24, phy::Rect{{0, 0}, {60, 60}}, 22.0, 31);
  ASSERT_TRUE(placement.ok());
  const phy::Topology t(placement.value(), phy::RadioParams{22.0, 0.0});
  const CodeMap codes = assign_greedy_two_hop(t);
  EXPECT_TRUE(verify_two_hop_distinct(t, codes));
}

TEST(GreedyAssignment, NeverUsesBroadcastCode) {
  const phy::Topology t = circle_topology(8);
  for (const CdmaCode code : assign_greedy_two_hop(t)) {
    EXPECT_NE(code, kBroadcastCode);
  }
}

TEST(GreedyAssignment, SkipsDeadNodes) {
  phy::Topology t = circle_topology(8);
  t.set_alive(3, false);
  const CodeMap codes = assign_greedy_two_hop(t);
  EXPECT_EQ(codes[3], kInvalidCode);
  EXPECT_TRUE(verify_two_hop_distinct(t, codes));
}

TEST(DistributedAssignment, ConvergesToValidColouring) {
  const phy::Topology t = circle_topology(16);
  std::size_t rounds = 0;
  const CodeMap codes = assign_distributed(t, 42, &rounds);
  EXPECT_TRUE(verify_two_hop_distinct(t, codes));
  EXPECT_GE(rounds, 1u);
}

TEST(DistributedAssignment, DeterministicPerSeed) {
  const phy::Topology t = circle_topology(12);
  const CodeMap a = assign_distributed(t, 7);
  const CodeMap b = assign_distributed(t, 7);
  EXPECT_EQ(a, b);
}

TEST(DistributedAssignment, RandomPlacements) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const auto placement = phy::placement::random_connected(
        20, phy::Rect{{0, 0}, {50, 50}}, 20.0, seed);
    ASSERT_TRUE(placement.ok());
    const phy::Topology t(placement.value(), phy::RadioParams{20.0, 0.0});
    EXPECT_TRUE(verify_two_hop_distinct(t, assign_distributed(t, seed)))
        << "seed " << seed;
  }
}

TEST(CodeBudget, CircleUsesFewCodes) {
  // A circle has bounded 2-hop neighbourhood size (4), so the greedy
  // colouring needs at most 5 codes regardless of N.
  const phy::Topology t = circle_topology(32);
  const CodeMap codes = assign_greedy_two_hop(t);
  EXPECT_LE(codes_used(codes), 5u);
}

TEST(Verify, DetectsViolations) {
  const phy::Topology t = circle_topology(6);
  CodeMap codes = assign_greedy_two_hop(t);
  codes[1] = codes[0];  // adjacent stations share a code
  EXPECT_FALSE(verify_two_hop_distinct(t, codes));
}

TEST(Verify, RejectsBroadcastCodeUse) {
  const phy::Topology t = circle_topology(6);
  CodeMap codes = assign_greedy_two_hop(t);
  codes[2] = kBroadcastCode;
  EXPECT_FALSE(verify_two_hop_distinct(t, codes));
}

TEST(Verify, ShortCodeMapFailsInBounds) {
  // A station added after the assignment is alive and within two hops of
  // earlier stations, but has no entry in the map: the map is incomplete,
  // and the walk must not read past its end.
  phy::Topology t = circle_topology(8);
  const CodeMap codes = assign_greedy_two_hop(t);
  const phy::Vec2 a = t.position(0);
  const phy::Vec2 b = t.position(1);
  const NodeId late = t.add_node((a + b) * 0.5);
  ASSERT_TRUE(t.reachable(late, 0));
  ASSERT_EQ(codes.size(), 8u);
  EXPECT_FALSE(verify_two_hop_distinct(t, codes));
}

TEST(SmallestFreeCode, SkipsEveryCodeWithinTwoHops) {
  const phy::Topology t = circle_topology(12);
  CodeMap codes = assign_greedy_two_hop(t);
  // Station 0's two-hop set is {1, 2, 10, 11}.
  codes[1] = 1;
  codes[2] = 2;
  codes[10] = 4;
  codes[11] = 5;
  EXPECT_EQ(smallest_free_code(t, codes, 0), 3);
  codes[10] = 3;
  EXPECT_EQ(smallest_free_code(t, codes, 0), 4);
  // Stations past the end of the map hold no code.
  codes.resize(2);
  EXPECT_EQ(smallest_free_code(t, codes, 0), 2);
}

TEST(TwoHopNeighbors, CircleHasFour) {
  const phy::Topology t = circle_topology(12);
  const auto n2 = two_hop_neighbors(t, 0);
  EXPECT_EQ(n2.size(), 4u);  // i-2, i-1, i+1, i+2
}

}  // namespace
}  // namespace wrt::cdma
