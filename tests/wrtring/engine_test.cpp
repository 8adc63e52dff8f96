#include "wrtring/engine.hpp"

#include <gtest/gtest.h>

#include "analysis/bounds.hpp"
#include "tests/wrtring/test_helpers.hpp"

namespace wrt::wrtring {
namespace {

using testing::Harness;
using testing::be_flow;
using testing::circle_topology;
using testing::rt_flow;

TEST(EngineInit, BuildsRingAndCodes) {
  Harness h(8, Config{});
  EXPECT_EQ(h.engine.virtual_ring().size(), 8u);
  EXPECT_TRUE(cdma::verify_two_hop_distinct(h.topology, h.engine.codes()));
}

TEST(EngineInit, FailsWithoutRing) {
  // A star has no Hamiltonian cycle.
  phy::Topology star({{0, 0}, {10, 0}, {-10, 0}, {0, 10}},
                     phy::RadioParams{11.0, 0.0});
  Engine engine(&star, Config{}, 1);
  const auto status = engine.init();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, util::Error::Code::kNoRingPossible);
}

TEST(EngineInit, RejectsMalformedMemberSet) {
  // Config::validate does not look at members; build_ring_over does, and
  // init returns its error instead of letting an exception escape.
  phy::Topology topology = circle_topology(8);
  Config config;
  config.members = {0, 1, 2, 2, 3};
  Engine engine(&topology, config, 1);
  const auto status = engine.init();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, util::Error::Code::kInvalidArgument);
}

TEST(EngineIdle, SatCirculatesAtRingLatency) {
  Harness h(10, Config{});
  h.engine.run_slots(200);
  // With no traffic, every rotation takes exactly S = N slots (hop = 1).
  const auto& rotation = h.engine.stats().sat_rotation_slots;
  ASSERT_GT(rotation.count(), 0u);
  EXPECT_DOUBLE_EQ(rotation.min(), 10.0);
  EXPECT_DOUBLE_EQ(rotation.max(), 10.0);
  EXPECT_EQ(h.engine.sat_state(), SatState::kInTransit);
}

TEST(EngineIdle, HopsPerRoundEqualsN) {
  Harness h(12, Config{});
  h.engine.run_slots(12 * 20);
  const auto& stats = h.engine.stats();
  ASSERT_GT(stats.sat_rounds, 0u);
  EXPECT_NEAR(static_cast<double>(stats.sat_hops) /
                  static_cast<double>(stats.sat_rounds),
              12.0, 0.5);
}

TEST(EngineDelivery, SingleHopPacket) {
  Harness h(6, Config{});
  traffic::Packet p;
  p.flow = 1;
  p.cls = TrafficClass::kBestEffort;
  p.src = h.engine.virtual_ring().station_at(0);
  p.dst = h.engine.virtual_ring().station_at(1);
  p.created = h.engine.now();
  ASSERT_TRUE(h.engine.inject_packet(p));
  h.engine.run_slots(20);
  EXPECT_EQ(h.engine.stats().sink.total_delivered(), 1u);
}

TEST(EngineDelivery, MultiHopTakesRingPath) {
  Harness h(8, Config{});
  traffic::Packet p;
  p.flow = 1;
  p.cls = TrafficClass::kRealTime;
  p.src = h.engine.virtual_ring().station_at(0);
  p.dst = h.engine.virtual_ring().station_at(5);
  p.created = h.engine.now();
  ASSERT_TRUE(h.engine.inject_packet(p));
  h.engine.run_slots(40);
  const auto& sink = h.engine.stats().sink;
  ASSERT_EQ(sink.total_delivered(), 1u);
  // 5 hops minimum (injection + 5 link crossings).
  EXPECT_GE(sink.by_class(TrafficClass::kRealTime).delay_slots.min(), 5.0);
}

TEST(EngineDelivery, InjectIntoUnknownStationFails) {
  Harness h(6, Config{});
  traffic::Packet p;
  p.src = 99;
  p.dst = 0;
  EXPECT_FALSE(h.engine.inject_packet(p));
}

TEST(EngineDelivery, CbrFlowDeliversEverything) {
  Harness h(8, Config{});
  auto spec = rt_flow(1, 0, 8, 16.0);
  h.engine.add_source(spec);
  h.engine.run_slots(2000);
  const auto& sink = h.engine.stats().sink;
  // ~125 packets generated; all but the in-flight tail must arrive.
  EXPECT_GT(sink.total_delivered(), 115u);
  EXPECT_EQ(sink.by_class(TrafficClass::kRealTime).deadline_misses, 0u);
}

TEST(EngineQuota, StationNeverExceedsLPlusKPerRound) {
  Config config;
  config.default_quota = {2, 1};
  Harness h(6, config);
  // Saturate every station with both classes.
  for (NodeId n = 0; n < 6; ++n) {
    auto rt = rt_flow(n * 2, n, 6);
    auto be = be_flow(n * 2 + 1, n, 6);
    h.engine.add_saturated_source(rt, 8);
    h.engine.add_saturated_source(be, 8);
  }
  h.engine.run_slots(3000);
  const auto& stats = h.engine.stats();
  ASSERT_GT(stats.sat_rounds, 10u);
  // Global conservation: transmissions <= rounds * N * (l + k) + slack for
  // the partial current round.
  const double max_per_round = 6.0 * 3.0;
  EXPECT_LE(static_cast<double>(stats.data_transmissions),
            (static_cast<double>(stats.sat_rounds) + 2.0) * max_per_round);
}

TEST(EngineFairness, SaturatedStationsShareEvenly) {
  Config config;
  config.default_quota = {1, 1};
  Harness h(6, config);
  for (NodeId n = 0; n < 6; ++n) {
    h.engine.add_saturated_source(rt_flow(n, n, 6), 8);
  }
  h.engine.run_slots(5000);
  const auto& per_flow = h.engine.stats().sink.per_flow();
  ASSERT_EQ(per_flow.size(), 6u);
  std::uint64_t min_count = ~0ull, max_count = 0;
  for (const auto& [flow, stats] : per_flow) {
    min_count = std::min(min_count, stats.count());
    max_count = std::max(max_count, stats.count());
  }
  ASSERT_GT(min_count, 0u);
  // Fairness: no station gets more than ~15% above another.
  EXPECT_LT(static_cast<double>(max_count) / static_cast<double>(min_count),
            1.15);
}

TEST(EngineRotation, SaturationApproachesProposition3) {
  Config config;
  config.default_quota = {1, 1};
  Harness h(8, config);
  for (NodeId n = 0; n < 8; ++n) {
    h.engine.add_saturated_source(rt_flow(n, n, 8), 8);
    h.engine.add_saturated_source(be_flow(n + 8, n, 8), 8);
  }
  h.engine.run_slots(8000);
  const analysis::RingParams params = h.engine.ring_params();
  const auto expected =
      static_cast<double>(analysis::expected_sat_time(params));
  const double measured = h.engine.stats().sat_rotation_slots.mean();
  // Under full saturation the mean rotation is within the Prop-3 value
  // (which the paper derives as the limit bound).
  EXPECT_LE(measured, expected + 1.0);
  EXPECT_GE(measured, static_cast<double>(params.ring_latency_slots));
}

TEST(EngineRotation, Theorem1BoundHolds) {
  Config config;
  config.default_quota = {2, 1};
  Harness h(8, config);
  for (NodeId n = 0; n < 8; ++n) {
    h.engine.add_saturated_source(rt_flow(n, n, 8), 8);
    h.engine.add_saturated_source(be_flow(n + 8, n, 8), 8);
  }
  h.engine.run_slots(10000);
  const auto bound = static_cast<double>(
      analysis::sat_time_bound(h.engine.ring_params()));
  EXPECT_LT(h.engine.stats().sat_rotation_slots.max(), bound);
}

TEST(EngineRotation, RtPriorityBeatsBestEffort) {
  Config config;
  config.default_quota = {1, 1};
  Harness h(8, config);
  h.engine.add_saturated_source(rt_flow(1, 0, 8), 4);
  h.engine.add_saturated_source(be_flow(2, 0, 8), 4);
  h.engine.run_slots(4000);
  const auto& sink = h.engine.stats().sink;
  const auto& rt = sink.by_class(TrafficClass::kRealTime);
  const auto& be = sink.by_class(TrafficClass::kBestEffort);
  ASSERT_GT(rt.delivered, 0u);
  ASSERT_GT(be.delivered, 0u);
  // RT packets from the same station wait no longer than BE packets do.
  EXPECT_LE(h.engine.stats().rt_access_delay_slots.mean(),
            h.engine.stats().access_delay_slots.mean() + 1.0);
}

TEST(EngineRing, ParamsTrackConfiguration) {
  Config config;
  config.default_quota = {3, 2};
  config.rap_policy = RapPolicy::kRotating;
  config.t_ear_slots = 4;
  config.t_update_slots = 2;
  Harness h(5, config);
  const analysis::RingParams params = h.engine.ring_params();
  EXPECT_EQ(params.ring_latency_slots, 5);
  EXPECT_EQ(params.t_rap_slots, 6);
  ASSERT_EQ(params.quotas.size(), 5u);
  EXPECT_EQ(params.quotas[0], (Quota{3, 2}));
}

TEST(EngineRing, PerStationQuotas) {
  Config config;
  config.station_quotas = {{1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}};
  Harness h(5, config);
  const analysis::RingParams params = h.engine.ring_params();
  std::int64_t total = 0;
  for (const Quota& q : params.quotas) total += q.l;
  EXPECT_EQ(total, 1 + 2 + 3 + 4 + 5);
}

TEST(EngineAdmission, GoalGatesExtraQuota) {
  Config config;
  config.default_quota = {1, 1};
  Harness h(6, config);
  // Current bound: S + 2*N*(l+k) = 6 + 24 = 30.
  h.engine.set_max_sat_time_goal(38);
  EXPECT_TRUE(h.engine.admission_allows({1, 0}));   // 7 + 2*13 = 33 <= 38
  EXPECT_FALSE(h.engine.admission_allows({4, 0}));  // 7 + 2*16 = 39 > 38
  h.engine.set_max_sat_time_goal(0);
  EXPECT_TRUE(h.engine.admission_allows({100, 100}));
}

TEST(EngineHistory, ArrivalHistoryGrows) {
  Harness h(6, Config{});
  h.engine.run_slots(100);
  const NodeId anchor = h.engine.virtual_ring().station_at(0);
  EXPECT_GE(h.engine.sat_arrival_history(anchor).size(), 10u);
  EXPECT_TRUE(h.engine.sat_arrival_history(999).empty());
}

TEST(EngineCdmaFidelity, NoCollisionsWithValidCodes) {
  Config config;
  config.cdma_fidelity = true;
  Harness h(8, config);
  for (NodeId n = 0; n < 8; ++n) {
    h.engine.add_saturated_source(rt_flow(n, n, 8), 4);
  }
  h.engine.run_slots(500);
  EXPECT_EQ(h.engine.stats().cdma_collisions, 0u);
  EXPECT_EQ(h.engine.stats().header_decode_failures, 0u);
  EXPECT_GT(h.engine.stats().sink.total_delivered(), 0u);
}

TEST(EngineCdmaFidelity, RebuildRegistersTheNewCodes) {
  // A re-formation re-colours every station.  The channel must then listen
  // on the new codes: stale registrations make the new ring's frames
  // collide at stations whose old code a neighbour now holds.
  Config config;
  config.cdma_fidelity = true;
  Harness h(24, config);
  for (NodeId n = 6; n < 24; ++n) {
    auto spec = rt_flow(n, n, 24);
    spec.dst = static_cast<NodeId>(6 + (n - 6 + 9) % 18);
    h.engine.add_saturated_source(spec, 4);
  }
  h.engine.run_slots(500);
  ASSERT_EQ(h.engine.stats().cdma_collisions, 0u);

  // Six stations walled off: no cut-out bridges the gap, so the ring
  // re-forms over the other eighteen.
  h.topology.set_partition({{0, 1, 2, 3, 4, 5}});
  for (int i = 0; i < 200 && (h.engine.virtual_ring().size() != 18 ||
                              h.engine.sat_state() == SatState::kRebuilding);
       ++i) {
    h.engine.run_slots(100);
  }
  ASSERT_GE(h.engine.stats().ring_rebuilds, 1u);
  ASSERT_EQ(h.engine.virtual_ring().size(), 18u);
  ASSERT_TRUE(cdma::verify_two_hop_distinct(h.topology, h.engine.codes()));

  const auto collisions = h.engine.stats().cdma_collisions;
  const auto delivered = h.engine.stats().sink.total_delivered();
  h.engine.run_slots(2000);
  EXPECT_EQ(h.engine.stats().cdma_collisions, collisions);
  EXPECT_GT(h.engine.stats().sink.total_delivered(), delivered);
}

TEST(EngineAccessDelay, RecordedOnInjection) {
  Harness h(6, Config{});
  auto spec = rt_flow(1, 0, 6, 32.0);
  h.engine.add_source(spec);
  h.engine.run_slots(1000);
  EXPECT_GT(h.engine.stats().access_delay_slots.count(), 0u);
  // Uncontended: the head packet waits less than one full rotation.
  EXPECT_LE(h.engine.stats().access_delay_slots.mean(), 12.0);
}

TEST(EngineStation, AccessorThrowsForStranger) {
  Harness h(6, Config{});
  EXPECT_THROW((void)h.engine.station_quota(42), std::out_of_range);
  EXPECT_THROW((void)h.engine.station_split(42), std::out_of_range);
  EXPECT_THROW((void)h.engine.queue_drops(42), std::out_of_range);
  const NodeId member = h.engine.virtual_ring().station_at(2);
  EXPECT_NO_THROW((void)h.engine.station_quota(member));
  EXPECT_NO_THROW((void)h.engine.station_split(member));
  EXPECT_NO_THROW((void)h.engine.queue_drops(member));
}

}  // namespace
}  // namespace wrt::wrtring
