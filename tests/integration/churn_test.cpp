// Long-horizon churn stress: randomized joins, leaves, deaths and SAT drops
// over tens of thousands of slots.  The invariant under test is the
// protocol's core liveness promise: whatever happens, the network either
// returns to a circulating SAT within the analytic recovery horizon or is
// provably un-ringable — and accounting identities (deliveries + drops <=
// generated, quota conservation) never break.
#include <gtest/gtest.h>

#include "analysis/bounds.hpp"
#include "tests/wrtring/test_helpers.hpp"
#include "wrtring/engine.hpp"

namespace wrt::wrtring {
namespace {

class ChurnTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChurnTest, RingAlwaysRecovers) {
  const std::uint64_t seed = GetParam();
  constexpr std::size_t kInitial = 12;

  // A pool of extra node slots near the circle for joiners.
  phy::Topology topology = phy::ring_room(kInitial);
  std::vector<NodeId> parked;
  for (std::size_t i = 0; i < 6; ++i) {
    const phy::Vec2 base = topology.position(static_cast<NodeId>(
        (i * 2) % kInitial));
    const NodeId id = topology.add_node(base * 1.08);
    topology.set_alive(id, false);  // parked until they "arrive"
    parked.push_back(id);
  }

  Config config;
  config.rap_policy = RapPolicy::kRotating;
  config.auto_rejoin = true;
  Engine engine(&topology, config, seed);
  ASSERT_TRUE(engine.init().ok());
  for (NodeId n = 0; n < kInitial; ++n) {
    engine.add_source(testing::rt_flow(n, n, kInitial, 40.0));
  }

  util::RngStream rng(seed, 0xC4u);
  std::size_t next_parked = 0;
  for (int epoch = 0; epoch < 30; ++epoch) {
    const std::uint64_t dice = rng.uniform_int(std::uint64_t{5});
    const std::size_t ring_size = engine.virtual_ring().size();
    switch (dice) {
      case 0:  // a parked node arrives and requests to join
        if (next_parked < parked.size()) {
          const NodeId joiner = parked[next_parked++];
          topology.set_alive(joiner, true);
          engine.request_join(joiner, {1, 1});
        }
        break;
      case 1:  // graceful leave
        if (ring_size > 5) {
          (void)engine.request_leave(engine.virtual_ring().station_at(
              static_cast<std::size_t>(rng.uniform_int(
                  static_cast<std::uint64_t>(ring_size)))));
        }
        break;
      case 2:  // unannounced death
        if (ring_size > 5) {
          engine.kill_station(engine.virtual_ring().station_at(
              static_cast<std::size_t>(rng.uniform_int(
                  static_cast<std::uint64_t>(ring_size)))));
        }
        break;
      case 3:  // transient control loss
        engine.drop_sat_once();
        break;
      default:  // quiet epoch
        break;
    }
    engine.run_slots(2000);

    // Liveness: after the quiet tail of each epoch (2000 slots, far
    // beyond every recovery horizon at these sizes) either the SAT
    // circulates, or the network is down for a *legitimate* geometric
    // reason — the alive connectivity graph no longer admits any ring.
    const bool circulating = engine.sat_state() == SatState::kInTransit ||
                             engine.sat_state() == SatState::kHeld;
    if (!circulating) {
      const auto attempt = ring::build_ring_over(
          topology, ring::largest_component(topology));
      EXPECT_FALSE(attempt.ok())
          << "epoch " << epoch << " seed " << seed
          << ": a ring exists but the engine is stuck in state "
          << static_cast<int>(engine.sat_state());
    }
  }

  // Accounting identities.
  const auto& stats = engine.stats();
  EXPECT_GT(stats.sink.total_delivered(), 0u);
  EXPECT_GE(stats.sat_hops, stats.sat_rounds);
  // Every detected loss ended in a cut-out, a rebuild, or a still-pending
  // rebuild (at most one pending).
  EXPECT_LE(stats.sat_losses_detected,
            stats.sat_recoveries + stats.ring_rebuilds + 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

class LossyChurnTest : public ::testing::TestWithParam<std::uint64_t> {};

/// The same churn storm over a bursty Gilbert–Elliott channel that also
/// nibbles at the SAT and the join handshake.  Because losses keep coming,
/// "circulating at the epoch boundary" is too strict — the liveness promise
/// under ambient loss is recovery within the analytic deadline.
TEST_P(LossyChurnTest, RingRecoversUnderBurstyLoss) {
  const std::uint64_t seed = GetParam();
  constexpr std::size_t kInitial = 12;

  phy::Topology topology = phy::ring_room(kInitial);
  std::vector<NodeId> parked;
  for (std::size_t i = 0; i < 4; ++i) {
    const phy::Vec2 base = topology.position(static_cast<NodeId>(
        (i * 3) % kInitial));
    const NodeId id = topology.add_node(base * 1.08);
    topology.set_alive(id, false);
    parked.push_back(id);
  }

  Config config;
  config.rap_policy = RapPolicy::kRotating;
  config.auto_rejoin = true;
  config.channel.data = fault::GeParams::bursty(0.05, 8.0);
  config.channel.sat = fault::GeParams::iid(0.002);
  config.channel.control = fault::GeParams::iid(0.05);
  Engine engine(&topology, config, seed);
  ASSERT_TRUE(engine.init().ok());
  for (NodeId n = 0; n < kInitial; ++n) {
    engine.add_source(testing::rt_flow(n, n, kInitial, 40.0));
  }

  const std::int64_t deadline =
      4 * analysis::sat_time_bound(engine.ring_params()) +
      config.rebuild_base_slots +
      config.rebuild_per_station_slots * static_cast<std::int64_t>(
          kInitial + parked.size());

  util::RngStream rng(seed, 0xC4u);
  std::size_t next_parked = 0;
  for (int epoch = 0; epoch < 15; ++epoch) {
    const std::uint64_t dice = rng.uniform_int(std::uint64_t{5});
    const std::size_t ring_size = engine.virtual_ring().size();
    switch (dice) {
      case 0:
        if (next_parked < parked.size()) {
          const NodeId joiner = parked[next_parked++];
          topology.set_alive(joiner, true);
          engine.request_join(joiner, {1, 1});
        }
        break;
      case 1:
        if (ring_size > 5) {
          (void)engine.request_leave(engine.virtual_ring().station_at(
              static_cast<std::size_t>(rng.uniform_int(
                  static_cast<std::uint64_t>(ring_size)))));
        }
        break;
      case 2:
        if (ring_size > 5) {
          engine.kill_station(engine.virtual_ring().station_at(
              static_cast<std::size_t>(rng.uniform_int(
                  static_cast<std::uint64_t>(ring_size)))));
        }
        break;
      case 3:
        engine.drop_sat_once();
        break;
      default:
        break;
    }
    engine.run_slots(2000);

    bool circulating = engine.sat_state() == SatState::kInTransit ||
                       engine.sat_state() == SatState::kHeld;
    for (std::int64_t i = 0; i < deadline && !circulating; ++i) {
      engine.step();
      circulating = engine.sat_state() == SatState::kInTransit ||
                    engine.sat_state() == SatState::kHeld;
    }
    if (!circulating) {
      const auto attempt = ring::build_ring_over(
          topology, ring::largest_component(topology));
      EXPECT_FALSE(attempt.ok())
          << "epoch " << epoch << " seed " << seed
          << ": a ring exists but the SAT did not recover within "
          << deadline << " slots";
    }
  }

  const auto& stats = engine.stats();
  EXPECT_GT(stats.sink.total_delivered(), 0u);
  EXPECT_GT(stats.frames_lost_link, 0u);
  // Frame conservation across the whole lossy, churny horizon.
  EXPECT_EQ(stats.data_transmissions,
            stats.sink.total_delivered() + stats.frames_lost_link +
                stats.frames_lost_rebuild + stats.frames_lost_churn +
                stats.frames_dropped_stale + engine.frames_in_flight());
  EXPECT_TRUE(engine.check_invariants().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossyChurnTest,
                         ::testing::Values(11u, 12u, 13u, 14u));

}  // namespace
}  // namespace wrt::wrtring
