// Section 2.4 / 2.5 behaviour: joins via RAP, graceful leaves, SAT loss
// detection, SAT_REC cut-out recovery, and ring re-formation.
#include <gtest/gtest.h>

#include "analysis/bounds.hpp"
#include "tests/wrtring/test_helpers.hpp"
#include "wrtring/engine.hpp"

namespace wrt::wrtring {
namespace {

using testing::Harness;
using testing::rt_flow;

Config rap_config() {
  Config config;
  config.rap_policy = RapPolicy::kRotating;
  config.t_ear_slots = 4;
  config.t_update_slots = 2;
  return config;
}

TEST(Join, NewStationEntersBetweenTwoNeighbours) {
  Harness h(8, rap_config());
  // Place the newcomer between ring neighbours 0 and 1, inside range.
  const phy::Vec2 mid =
      (h.topology.position(0) + h.topology.position(1)) * 0.5;
  const NodeId newcomer = h.topology.add_node(mid);
  h.engine.request_join(newcomer, {1, 1});
  // The joiner needs to hear every station's NEXT_FREE plus a repeat, then
  // wait for its chosen ingress again: run generously.
  h.engine.run_slots(8 * 40 * 8);
  ASSERT_EQ(h.engine.stats().joins_completed, 1u);
  EXPECT_TRUE(h.engine.virtual_ring().contains(newcomer));
  EXPECT_EQ(h.engine.virtual_ring().size(), 9u);
  // The ring stays geometrically valid.
  EXPECT_TRUE(h.engine.virtual_ring().valid_over(h.topology));
  // Codes stay distance-2 clean after the insertion.
  EXPECT_TRUE(cdma::verify_two_hop_distinct(h.topology, h.engine.codes()));
}

TEST(Join, JoinedStationCarriesTraffic) {
  Harness h(6, rap_config());
  const phy::Vec2 mid =
      (h.topology.position(2) + h.topology.position(3)) * 0.5;
  const NodeId newcomer = h.topology.add_node(mid);
  h.engine.request_join(newcomer, {2, 1});
  h.engine.run_slots(6 * 40 * 8);
  ASSERT_TRUE(h.engine.virtual_ring().contains(newcomer));
  traffic::Packet p;
  p.flow = 9;
  p.cls = TrafficClass::kRealTime;
  p.src = newcomer;
  p.dst = h.engine.virtual_ring().successor(newcomer);
  p.created = h.engine.now();
  ASSERT_TRUE(h.engine.inject_packet(p));
  const auto before = h.engine.stats().sink.total_delivered();
  h.engine.run_slots(200);
  EXPECT_GT(h.engine.stats().sink.total_delivered(), before);
}

TEST(Join, OutOfRangeRequesterNeverJoins) {
  Harness h(6, rap_config());
  const NodeId far = h.topology.add_node({500.0, 500.0});
  h.engine.request_join(far, {1, 1});
  h.engine.run_slots(6 * 40 * 8);
  EXPECT_EQ(h.engine.stats().joins_completed, 0u);
  EXPECT_FALSE(h.engine.virtual_ring().contains(far));
}

TEST(Join, SingleNeighbourRequesterCannotJoin) {
  // Section 2.4.1: the requester must reach TWO consecutive stations.
  Harness h(8, rap_config(), 1, 1.2);  // tight range: ~1 hop
  // Just outside the circle near station 0 only.
  const phy::Vec2 p0 = h.topology.position(0);
  const NodeId lonely = h.topology.add_node({p0.x * 1.35, p0.y * 1.35});
  // Confirm the premise: exactly one ring member in range.
  std::size_t in_range = 0;
  for (NodeId n = 0; n < 8; ++n) {
    if (h.topology.reachable(lonely, n)) ++in_range;
  }
  ASSERT_LE(in_range, 1u);
  h.engine.request_join(lonely, {1, 1});
  h.engine.run_slots(8 * 40 * 8);
  EXPECT_EQ(h.engine.stats().joins_completed, 0u);
}

TEST(Join, AdmissionControlRejectsOversizedQuota) {
  Config config = rap_config();
  config.default_quota = {1, 1};
  Harness h(6, config);
  h.engine.set_max_sat_time_goal(
      analysis::sat_time_bound(h.engine.ring_params()) + 4);
  const phy::Vec2 mid =
      (h.topology.position(0) + h.topology.position(1)) * 0.5;
  const NodeId greedy = h.topology.add_node(mid);
  h.engine.request_join(greedy, {50, 50});  // would blow the bound
  h.engine.run_slots(6 * 40 * 8);
  EXPECT_EQ(h.engine.stats().joins_completed, 0u);
  EXPECT_GE(h.engine.stats().joins_rejected, 1u);
}

TEST(Join, RapMutexAllowsAtMostOneRapPerRound) {
  Harness h(6, rap_config());
  h.engine.run_slots(2000);
  const auto& stats = h.engine.stats();
  ASSERT_GT(stats.raps_started, 0u);
  // One RAP per SAT round at most.
  EXPECT_LE(stats.raps_started, stats.sat_rounds + 1);
}

TEST(Join, TwoSimultaneousJoinersEventuallyBothEnter) {
  Harness h(8, rap_config());
  const phy::Vec2 mid01 =
      (h.topology.position(0) + h.topology.position(1)) * 0.5;
  const phy::Vec2 mid45 =
      (h.topology.position(4) + h.topology.position(5)) * 0.5;
  const NodeId j1 = h.topology.add_node(mid01);
  const NodeId j2 = h.topology.add_node(mid45);
  h.engine.request_join(j1, {1, 1});
  h.engine.request_join(j2, {1, 1});
  h.engine.run_slots(8 * 40 * 24);
  EXPECT_EQ(h.engine.stats().joins_completed, 2u);
  EXPECT_TRUE(h.engine.virtual_ring().contains(j1));
  EXPECT_TRUE(h.engine.virtual_ring().contains(j2));
}

TEST(Leave, GracefulLeaveCutsStationOut) {
  Harness h(8, Config{});
  const NodeId leaver = h.engine.virtual_ring().station_at(3);
  ASSERT_TRUE(h.engine.request_leave(leaver).ok());
  h.engine.run_slots(500);
  EXPECT_FALSE(h.engine.virtual_ring().contains(leaver));
  EXPECT_EQ(h.engine.virtual_ring().size(), 7u);
  EXPECT_EQ(h.engine.stats().leaves_completed, 1u);
  // Graceful exit requires neither loss detection nor rebuild.
  EXPECT_EQ(h.engine.stats().sat_losses_detected, 0u);
  EXPECT_EQ(h.engine.stats().ring_rebuilds, 0u);
  // The SAT keeps circulating in the smaller ring.
  const auto rounds_before = h.engine.stats().sat_rounds;
  h.engine.run_slots(100);
  EXPECT_GT(h.engine.stats().sat_rounds, rounds_before);
}

TEST(Leave, RejectsUnknownAndTinyRings) {
  Harness h(8, Config{});
  EXPECT_FALSE(h.engine.request_leave(77).ok());
  Harness tiny(3, Config{});
  const auto status =
      tiny.engine.request_leave(tiny.engine.virtual_ring().station_at(0));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, util::Error::Code::kNoRingPossible);
}

TEST(SatLoss, TransientDropDetectedWithinBound) {
  Harness h(8, Config{});
  h.engine.run_slots(100);
  h.engine.drop_sat_once();
  h.engine.run_slots(2 * analysis::sat_time_bound(h.engine.ring_params()) +
                     50);
  const auto& stats = h.engine.stats();
  EXPECT_EQ(stats.sat_losses_detected, 1u);
  ASSERT_EQ(stats.sat_loss_detection_slots.count(), 1u);
  // Detection within SAT_TIME (the Theorem-1 bound).
  EXPECT_LE(stats.sat_loss_detection_slots.max(),
            static_cast<double>(
                analysis::sat_time_bound(h.engine.ring_params())));
}

TEST(SatLoss, TransientDropRecoversByCutOut) {
  // Paper behaviour: the detector blames its predecessor, which gets cut
  // out even though it is healthy; the ring survives with N-1 stations and
  // the SAT keeps circulating.
  Harness h(8, Config{});
  h.engine.run_slots(100);
  h.engine.drop_sat_once();
  h.engine.run_slots(3 * analysis::sat_time_bound(h.engine.ring_params()));
  const auto& stats = h.engine.stats();
  EXPECT_EQ(stats.sat_recoveries, 1u);
  EXPECT_EQ(stats.ring_rebuilds, 0u);
  EXPECT_EQ(h.engine.virtual_ring().size(), 7u);
  const auto rounds = stats.sat_rounds;
  h.engine.run_slots(100);
  EXPECT_GT(h.engine.stats().sat_rounds, rounds);
}

TEST(SatLoss, DeadStationCutOutByRecovery) {
  Harness h(8, Config{});
  h.engine.run_slots(50);
  const NodeId victim = h.engine.virtual_ring().station_at(4);
  h.engine.kill_station(victim);
  h.engine.run_slots(4 * analysis::sat_time_bound(h.engine.ring_params()));
  const auto& stats = h.engine.stats();
  EXPECT_GE(stats.sat_losses_detected, 1u);
  EXPECT_FALSE(h.engine.virtual_ring().contains(victim));
  EXPECT_EQ(h.engine.virtual_ring().size(), 7u);
  EXPECT_TRUE(h.engine.virtual_ring().valid_over(h.topology));
  // Recovery, not a full rebuild: i-1 could reach i+1 (2-hop range).
  EXPECT_EQ(stats.ring_rebuilds, 0u);
  EXPECT_EQ(stats.sat_recoveries, 1u);
}

TEST(SatLoss, RebuildAttemptedWhenCutOutImpossible) {
  // Range restricted to ~1 hop: after killing a station, i-1 cannot reach
  // i+1, so the SAT_REC cannot bridge the gap and the full re-formation
  // procedure runs (Section 2.5 last paragraph).  On this 1-hop circle the
  // survivors form a path, so no replacement ring exists and the network
  // stays down — the engine keeps retrying the re-formation.
  Harness h(12, Config{}, 1, 1.2);
  h.engine.run_slots(50);
  const NodeId victim = h.engine.virtual_ring().station_at(6);
  h.engine.kill_station(victim);
  const auto bound = analysis::sat_time_bound(h.engine.ring_params());
  h.engine.run_slots(8 * bound + 200);
  const auto& stats = h.engine.stats();
  EXPECT_GE(stats.ring_rebuilds, 1u);
  EXPECT_EQ(stats.sat_recoveries, 0u);
  EXPECT_EQ(h.engine.sat_state(), SatState::kRebuilding);
}

TEST(SatLoss, RebuildRecruitsOnlyReachableComponent) {
  // A station that wandered far away is excluded from the re-formed ring.
  Harness h(8, Config{});
  h.engine.run_slots(50);
  const NodeId wanderer = h.engine.virtual_ring().station_at(4);
  h.topology.set_position(wanderer, {500.0, 500.0});
  h.engine.run_slots(10 * analysis::sat_time_bound(h.engine.ring_params()));
  EXPECT_FALSE(h.engine.virtual_ring().contains(wanderer));
  EXPECT_EQ(h.engine.virtual_ring().size(), 7u);
}

TEST(SatLoss, TrafficSurvivesRecovery) {
  Harness h(8, Config{});
  for (NodeId n = 0; n < 8; ++n) {
    h.engine.add_source(rt_flow(n, n, 8, 32.0));
  }
  h.engine.run_slots(300);
  const NodeId victim = h.engine.virtual_ring().station_at(2);
  h.engine.kill_station(victim);
  h.engine.run_slots(4 * analysis::sat_time_bound(h.engine.ring_params()));
  const auto delivered_mid = h.engine.stats().sink.total_delivered();
  h.engine.run_slots(1000);
  // Surviving stations' flows keep flowing after the cut-out.
  EXPECT_GT(h.engine.stats().sink.total_delivered(), delivered_mid + 20);
}

TEST(SatLoss, RecoveryFasterThanTptReactionBound) {
  // Section 3.3: SAT_TIME < D = 2 TTRT under equal reserved bandwidth.
  Config config;
  config.default_quota = {1, 1};
  Harness h(10, config);
  h.engine.run_slots(100);
  h.engine.drop_sat_once();
  const auto params = h.engine.ring_params();
  h.engine.run_slots(4 * analysis::sat_time_bound(params));
  ASSERT_EQ(h.engine.stats().sat_recoveries, 1u);
  analysis::TptParams tpt;
  tpt.h_sync_slots.assign(10, 2);  // same reserved bandwidth l + k = 2
  tpt.t_proc_plus_prop_slots = 1.0;
  tpt.ttrt_slots = analysis::sat_time_bound(params);  // generous for TPT
  EXPECT_LT(h.engine.stats().sat_loss_detection_slots.max(),
            static_cast<double>(analysis::tpt_reaction_bound(tpt)));
}

}  // namespace
}  // namespace wrt::wrtring
