// End-to-end fault sequences: combined joins, leaves, deaths, link breaks
// and mobility, verifying the protocol always returns to a circulating SAT.
#include <gtest/gtest.h>

#include "analysis/bounds.hpp"
#include "phy/mobility.hpp"
#include "tests/wrtring/test_helpers.hpp"
#include "wrtring/engine.hpp"

namespace wrt::wrtring {
namespace {

using testing::Harness;

Config rap_config() {
  Config config;
  config.rap_policy = RapPolicy::kRotating;
  return config;
}

/// Runs until the SAT is circulating (in transit or held) or the deadline
/// passes; returns true when circulation resumed.
bool wait_for_sat(Engine& engine, std::int64_t max_slots) {
  for (std::int64_t i = 0; i < max_slots; ++i) {
    engine.step();
    if (engine.sat_state() == SatState::kInTransit ||
        engine.sat_state() == SatState::kHeld) {
      return true;
    }
  }
  return false;
}

TEST(FaultSequence, KillTwoStationsSequentially) {
  Harness h(10, Config{});
  h.engine.run_slots(100);
  h.engine.kill_station(h.engine.virtual_ring().station_at(3));
  h.engine.run_slots(5 * analysis::sat_time_bound(h.engine.ring_params()));
  EXPECT_EQ(h.engine.virtual_ring().size(), 9u);
  h.engine.kill_station(h.engine.virtual_ring().station_at(6));
  h.engine.run_slots(5 * analysis::sat_time_bound(h.engine.ring_params()));
  EXPECT_EQ(h.engine.virtual_ring().size(), 8u);
  ASSERT_TRUE(wait_for_sat(h.engine, 100));
  const auto rounds = h.engine.stats().sat_rounds;
  h.engine.run_slots(100);
  EXPECT_GT(h.engine.stats().sat_rounds, rounds);
}

TEST(FaultSequence, KillAdjacentStations) {
  // Adjacent deaths stress the cut-out: after removing station i, its
  // former neighbour dies too.
  Harness h(12, Config{});
  h.engine.run_slots(100);
  const NodeId first = h.engine.virtual_ring().station_at(4);
  const NodeId second = h.engine.virtual_ring().station_at(5);
  h.engine.kill_station(first);
  h.engine.kill_station(second);
  // Either two cut-outs (range permitting) or a rebuild must restore the
  // ring over the 10 survivors.
  h.engine.run_slots(20 * analysis::sat_time_bound(h.engine.ring_params()));
  EXPECT_FALSE(h.engine.virtual_ring().contains(first));
  EXPECT_FALSE(h.engine.virtual_ring().contains(second));
  EXPECT_EQ(h.engine.virtual_ring().size(), 10u);
  ASSERT_TRUE(wait_for_sat(h.engine, 200));
}

TEST(FaultSequence, JoinAfterDeathRestoresSize) {
  Harness h(8, rap_config());
  h.engine.run_slots(100);
  const NodeId victim = h.engine.virtual_ring().station_at(2);
  h.engine.kill_station(victim);
  h.engine.run_slots(6 * analysis::sat_time_bound(h.engine.ring_params()));
  ASSERT_EQ(h.engine.virtual_ring().size(), 7u);
  // A newcomer appears where the victim was and joins.
  const NodeId newcomer = h.topology.add_node(h.topology.position(victim));
  h.engine.request_join(newcomer, {1, 1});
  h.engine.run_slots(8 * 40 * 10);
  EXPECT_EQ(h.engine.virtual_ring().size(), 8u);
  EXPECT_TRUE(h.engine.virtual_ring().contains(newcomer));
}

TEST(FaultSequence, RepeatedTransientSatDrops) {
  Harness h(10, Config{});
  for (int round = 0; round < 3; ++round) {
    h.engine.run_slots(200);
    if (h.engine.virtual_ring().size() < 4) break;
    h.engine.drop_sat_once();
    ASSERT_TRUE(wait_for_sat(
        h.engine,
        6 * analysis::sat_time_bound(h.engine.ring_params()) + 100))
        << "round " << round;
  }
  // Each transient drop costs one healthy station (paper semantics), but
  // the network survives.
  EXPECT_GE(h.engine.virtual_ring().size(), 7u);
  EXPECT_EQ(h.engine.stats().ring_rebuilds, 0u);
}

TEST(FaultSequence, LinkFailureBreaksSatPath) {
  Harness h(8, Config{});
  h.engine.run_slots(50);
  const NodeId a = h.engine.virtual_ring().station_at(1);
  const NodeId b = h.engine.virtual_ring().station_at(2);
  h.topology.fail_link(a, b);
  h.engine.run_slots(6 * analysis::sat_time_bound(h.engine.ring_params()));
  // The SAT died on the a->b hop; recovery cut somebody out or rebuilt.
  EXPECT_GE(h.engine.stats().sat_losses_detected, 1u);
  ASSERT_TRUE(wait_for_sat(h.engine, 500));
}

TEST(FaultSequence, GracefulLeavesBackToMinimumRing) {
  Harness h(6, Config{});
  h.engine.run_slots(50);
  // Leave until the ring refuses (minimum size 3 preserved).
  std::size_t leaves = 0;
  while (h.engine.virtual_ring().size() > 3) {
    const NodeId leaver = h.engine.virtual_ring().station_at(0);
    ASSERT_TRUE(h.engine.request_leave(leaver).ok());
    h.engine.run_slots(400);
    ASSERT_FALSE(h.engine.virtual_ring().contains(leaver));
    ++leaves;
  }
  EXPECT_EQ(leaves, 3u);
  EXPECT_FALSE(
      h.engine.request_leave(h.engine.virtual_ring().station_at(0)).ok());
  ASSERT_TRUE(wait_for_sat(h.engine, 100));
}

TEST(FaultSequence, MobilityWithinLeashKeepsRingAlive) {
  // Dense ring + small leash: positions drift but stay in range, so no
  // recovery should ever trigger.
  Harness h(8, Config{}, 1, 3.0);
  phy::WaypointParams params;
  params.leash_radius = 1.0;
  params.slot_seconds = 1e-3;
  phy::BoundedRandomWaypoint mobility(
      phy::Rect{{-30, -30}, {30, 30}}, params, 5);
  mobility.bind(h.topology);
  for (int epoch = 0; epoch < 50; ++epoch) {
    mobility.step(h.topology, h.engine.now(), slots_to_ticks(100));
    h.engine.run_slots(100);
  }
  EXPECT_EQ(h.engine.stats().sat_losses_detected, 0u);
  EXPECT_EQ(h.engine.virtual_ring().size(), 8u);
}

TEST(FaultSequence, WanderAwayTriggersRecovery) {
  // One station walks out of range: the ring must notice and shrink.
  Harness h(8, Config{});
  h.engine.run_slots(50);
  const NodeId wanderer = h.engine.virtual_ring().station_at(4);
  h.topology.set_position(wanderer, {400.0, 400.0});
  h.engine.run_slots(8 * analysis::sat_time_bound(h.engine.ring_params()));
  EXPECT_FALSE(h.engine.virtual_ring().contains(wanderer));
  ASSERT_TRUE(wait_for_sat(h.engine, 500));
}

TEST(FaultSequence, DeterministicReplay) {
  // Two identical harnesses fed the identical fault script produce
  // identical statistics — the determinism contract behind every bench.
  const auto run = [](std::uint64_t seed) {
    Harness h(10, rap_config(), seed);
    for (NodeId n = 0; n < 10; ++n) {
      h.engine.add_source(testing::rt_flow(n, n, 10, 24.0));
    }
    h.engine.run_slots(500);
    h.engine.drop_sat_once();
    h.engine.run_slots(3000);
    return std::tuple{h.engine.stats().sink.total_delivered(),
                      h.engine.stats().sat_rounds,
                      h.engine.stats().sat_hops,
                      h.engine.stats().sat_rotation_slots.mean()};
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(std::get<0>(run(7)), 0u);
}

}  // namespace
}  // namespace wrt::wrtring
