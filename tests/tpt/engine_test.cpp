#include "tpt/engine.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "analysis/bounds.hpp"

namespace wrt::tpt {
namespace {

/// Dense indoor room: every station hears every other (data single-hop),
/// the regime TPT was designed for.
phy::Topology room(std::size_t n) {
  return phy::Topology(phy::placement::circle(n, 5.0),
                       phy::RadioParams{100.0, 0.0});
}

struct Harness {
  Harness(std::size_t n, TptConfig config, std::uint64_t seed = 1)
      : topology(room(n)), engine(&topology, std::move(config), seed) {
    const auto status = engine.init();
    if (!status.ok()) {
      throw std::runtime_error(status.error().message);
    }
  }
  phy::Topology topology;
  TptEngine engine;
};

traffic::FlowSpec rt_flow(FlowId id, NodeId src, NodeId dst,
                          double period = 16.0) {
  traffic::FlowSpec spec;
  spec.id = id;
  spec.src = src;
  spec.dst = dst;
  spec.cls = TrafficClass::kRealTime;
  spec.kind = traffic::ArrivalKind::kCbr;
  spec.period_slots = period;
  spec.deadline_slots = 100000;
  return spec;
}

traffic::FlowSpec be_flow(FlowId id, NodeId src, NodeId dst,
                          double rate = 0.2) {
  traffic::FlowSpec spec;
  spec.id = id;
  spec.src = src;
  spec.dst = dst;
  spec.cls = TrafficClass::kBestEffort;
  spec.kind = traffic::ArrivalKind::kPoisson;
  spec.rate_per_slot = rate;
  return spec;
}

TEST(TptInit, BuildsTreeOverRoom) {
  Harness h(8, TptConfig{});
  EXPECT_EQ(h.engine.tree().size(), 8u);
}

TEST(TptInit, RefusesAnInvalidChannel) {
  phy::Topology topology = room(6);
  TptConfig loses_everything;
  loses_everything.channel.data = fault::GeParams::iid(1.0);
  TptEngine a(&topology, loses_everything, 1);
  EXPECT_FALSE(a.init().ok());

  TptConfig trapped;
  trapped.channel.sat.p_good_to_bad = 0.5;
  trapped.channel.sat.p_bad_to_good = 0.0;
  TptEngine b(&topology, trapped, 1);
  EXPECT_FALSE(b.init().ok());
}

TEST(TptIdle, TokenWalksTwoNMinusTwoHopsPerRound) {
  Harness h(9, TptConfig{});
  h.engine.run_slots(4000);
  const auto& stats = h.engine.stats();
  ASSERT_GT(stats.token_rounds, 2u);
  EXPECT_NEAR(static_cast<double>(stats.token_hops) /
                  static_cast<double>(stats.token_rounds),
              static_cast<double>(analysis::tpt_hops_per_round(9)), 1.0);
}

TEST(TptIdle, EmptyRoundTripMatchesSection33Formula) {
  TptConfig config;
  config.t_proc_prop_slots = 2;
  Harness h(7, config);
  h.engine.run_slots(3000);
  const double expected = analysis::tpt_signal_round_trip(7, 2.0, 0.0);
  EXPECT_NEAR(h.engine.stats().token_rotation_slots.mean(), expected, 1.0);
}

TEST(TptDelivery, SingleHopInRange) {
  Harness h(6, TptConfig{});
  traffic::Packet p;
  p.flow = 1;
  p.cls = TrafficClass::kRealTime;
  p.src = 2;
  p.dst = 5;
  p.created = h.engine.now();
  ASSERT_TRUE(h.engine.inject_packet(p));
  h.engine.run_slots(200);
  EXPECT_EQ(h.engine.stats().sink.total_delivered(), 1u);
}

TEST(TptDelivery, MultiHopAlongTree) {
  // Chain topology: ends are out of range and must relay.
  phy::Topology chain(phy::placement::chain(5, 10.0),
                      phy::RadioParams{12.0, 0.0});
  TptEngine engine(&chain, TptConfig{}, 1);
  ASSERT_TRUE(engine.init().ok());
  traffic::Packet p;
  p.flow = 1;
  p.cls = TrafficClass::kRealTime;
  p.src = 0;
  p.dst = 4;
  p.created = engine.now();
  ASSERT_TRUE(engine.inject_packet(p));
  engine.run_slots(2000);
  EXPECT_EQ(engine.stats().sink.total_delivered(), 1u);
}

TEST(TptDelivery, CbrFlowDeliversEverything) {
  Harness h(8, TptConfig{});
  h.engine.add_source(rt_flow(1, 0, 4, 32.0));
  h.engine.run_slots(4000);
  EXPECT_GT(h.engine.stats().sink.total_delivered(), 110u);
}

TEST(TptTimedToken, SyncQuotaEnforcedPerVisit) {
  TptConfig config;
  config.h_sync_default = 2;
  config.ttrt_slots = 40;
  Harness h(6, config);
  h.engine.add_saturated_source(rt_flow(1, 0, 3), 10);
  h.engine.run_slots(4000);
  const auto& stats = h.engine.stats();
  ASSERT_GT(stats.token_rounds, 10u);
  // Station 0 can send at most H = 2 sync packets per round.
  EXPECT_LE(static_cast<double>(
                stats.sink.by_class(TrafficClass::kRealTime).delivered),
            2.0 * static_cast<double>(stats.token_rounds + 1));
}

TEST(TptTimedToken, RotationBoundedByTwiceTtrt) {
  TptConfig config;
  config.ttrt_slots = 64;
  config.h_sync_default = 2;
  Harness h(8, config);
  for (NodeId n = 0; n < 8; ++n) {
    h.engine.add_saturated_source(rt_flow(n, n, (n + 1) % 8), 8);
    h.engine.add_saturated_source(be_flow(n + 8, n, (n + 2) % 8), 8);
  }
  h.engine.run_slots(20000);
  // Timed-token theorem: max rotation <= 2 TTRT (feasible configuration:
  // sum H + walk <= TTRT here: 16 + 14 = 30 <= 64).
  EXPECT_LE(h.engine.stats().token_rotation_slots.max(),
            2.0 * static_cast<double>(config.ttrt_slots));
}

TEST(TptTimedToken, AsyncThrottledWhenTokenLate) {
  // Sync load sized so the rotation approaches TTRT: BE traffic then gets
  // almost no async budget and starves relative to RT.
  TptConfig config;
  config.ttrt_slots = 20;
  config.h_sync_default = 2;
  Harness h(8, config);
  for (NodeId n = 0; n < 8; ++n) {
    h.engine.add_saturated_source(rt_flow(n, n, (n + 1) % 8), 8);
    h.engine.add_saturated_source(be_flow(n + 8, n, (n + 2) % 8), 8);
  }
  h.engine.run_slots(20000);
  const auto& sink = h.engine.stats().sink;
  const auto rt_count = sink.by_class(TrafficClass::kRealTime).delivered;
  const auto be_count = sink.by_class(TrafficClass::kBestEffort).delivered;
  ASSERT_GT(rt_count, 0u);
  EXPECT_LT(static_cast<double>(be_count),
            0.5 * static_cast<double>(rt_count));
}

TEST(TptLoss, TransientDropDetectedWithinTwoTtrt) {
  TptConfig config;
  config.ttrt_slots = 32;
  Harness h(8, config);
  h.engine.run_slots(300);
  h.engine.drop_token_once();
  h.engine.run_slots(6 * config.ttrt_slots);
  const auto& stats = h.engine.stats();
  ASSERT_EQ(stats.losses_detected, 1u);
  EXPECT_LE(stats.loss_detection_slots.max(),
            static_cast<double>(analysis::tpt_reaction_bound(
                h.engine.params())));
}

TEST(TptLoss, TransientDropRecoversByClaimWithoutRebuild) {
  TptConfig config;
  config.ttrt_slots = 32;
  Harness h(8, config);
  h.engine.run_slots(300);
  h.engine.drop_token_once();
  h.engine.run_slots(10 * config.ttrt_slots);
  const auto& stats = h.engine.stats();
  EXPECT_EQ(stats.claims_succeeded, 1u);
  EXPECT_EQ(stats.tree_rebuilds, 0u);
  const auto rounds = stats.token_rounds;
  h.engine.run_slots(500);
  EXPECT_GT(h.engine.stats().token_rounds, rounds);
}

TEST(TptLoss, DeadStationForcesFullRebuild) {
  // Section 3.3: "In TPT when a station is down, the current network
  // topology is considered broken and a new tree must be created."
  TptConfig config;
  config.ttrt_slots = 32;
  Harness h(8, config);
  h.engine.run_slots(300);
  h.engine.kill_station(3);
  h.engine.run_slots(30 * config.ttrt_slots);
  const auto& stats = h.engine.stats();
  EXPECT_GE(stats.tree_rebuilds, 1u);
  EXPECT_FALSE(h.engine.tree().contains(3));
  const auto rounds = stats.token_rounds;
  h.engine.run_slots(500);
  EXPECT_GT(h.engine.stats().token_rounds, rounds);
}

TEST(TptJoin, RapAdmitsRequester) {
  TptConfig config;
  config.rap_every_rounds = 4;
  config.t_rap_slots = 6;
  Harness h(6, config);
  const NodeId newcomer = h.topology.add_node({0.0, 0.0});
  h.engine.request_join(newcomer);
  h.engine.run_slots(5000);
  EXPECT_EQ(h.engine.stats().joins_completed, 1u);
  EXPECT_TRUE(h.engine.tree().contains(newcomer));
  // Tour length reflects the new member.
  h.engine.run_slots(500);
  EXPECT_GT(h.engine.stats().token_rounds, 0u);
}

TEST(TptJoin, OutOfRangeRequesterIgnored) {
  TptConfig config;
  config.rap_every_rounds = 4;
  Harness h(6, config);
  const NodeId far = h.topology.add_node({1000.0, 1000.0});
  h.engine.request_join(far);
  h.engine.run_slots(5000);
  EXPECT_EQ(h.engine.stats().joins_completed, 0u);
}

TEST(TptParamsExport, MatchesConfiguration) {
  TptConfig config;
  config.h_sync_default = 3;
  config.t_proc_prop_slots = 2;
  config.ttrt_slots = 80;
  config.rap_every_rounds = 2;
  config.t_rap_slots = 5;
  Harness h(6, config);
  const analysis::TptParams params = h.engine.params();
  EXPECT_EQ(params.stations(), 6u);
  EXPECT_EQ(params.h_sum(), 18);
  EXPECT_DOUBLE_EQ(params.t_proc_plus_prop_slots, 2.0);
  EXPECT_EQ(params.t_rap_slots, 5);
  EXPECT_EQ(params.ttrt_slots, 80);
}

}  // namespace
}  // namespace wrt::tpt
