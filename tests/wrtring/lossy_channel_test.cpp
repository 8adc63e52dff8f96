// Lossy-channel robustness: frame/SAT loss probabilities and auto-rejoin
// (the "control signal can be frequently lost" regime of Section 3.3).
#include <gtest/gtest.h>

#include "analysis/bounds.hpp"
#include "tests/wrtring/test_helpers.hpp"
#include "wrtring/engine.hpp"

namespace wrt::wrtring {
namespace {

using testing::Harness;
using testing::rt_flow;

TEST(LossyChannel, FrameLossReducesDeliveries) {
  Config lossy;
  lossy.channel.data = fault::GeParams::iid(0.2);
  Harness clean(8, Config{}, 3);
  Harness noisy(8, lossy, 3);
  for (NodeId n = 0; n < 8; ++n) {
    clean.engine.add_source(rt_flow(n, n, 8, 16.0));
    noisy.engine.add_source(rt_flow(n, n, 8, 16.0));
  }
  clean.engine.run_slots(4000);
  noisy.engine.run_slots(4000);
  EXPECT_GT(noisy.engine.stats().frames_lost_link, 100u);
  EXPECT_LT(noisy.engine.stats().sink.total_delivered(),
            clean.engine.stats().sink.total_delivered());
}

TEST(LossyChannel, FrameLossDoesNotTouchTheSat) {
  Config lossy;
  lossy.channel.data = fault::GeParams::iid(0.3);
  Harness h(8, lossy, 3);
  for (NodeId n = 0; n < 8; ++n) {
    h.engine.add_source(rt_flow(n, n, 8, 16.0));
  }
  h.engine.run_slots(4000);
  // Data loss alone must never trigger the SAT recovery machinery.
  EXPECT_EQ(h.engine.stats().sat_losses_detected, 0u);
}

TEST(LossyChannel, SatLossTriggersRepeatedRecoveries) {
  Config config;
  // Roughly one loss per ~60 rounds (N=8).
  config.channel.sat = fault::GeParams::iid(0.002);
  Harness h(8, config, 7);
  h.engine.run_slots(30000);
  const auto& stats = h.engine.stats();
  EXPECT_GE(stats.sat_losses_detected, 2u);
  // Every detected loss was handled (cut-out or rebuild), and the SAT is
  // alive at the end.
  EXPECT_GE(stats.sat_recoveries + stats.ring_rebuilds, 1u);
  EXPECT_TRUE(h.engine.sat_state() == SatState::kInTransit ||
              h.engine.sat_state() == SatState::kHeld);
}

TEST(LossyChannel, AutoRejoinRestoresMembership) {
  Config config;
  config.rap_policy = RapPolicy::kRotating;
  config.auto_rejoin = true;
  Harness h(8, config, 5);
  h.engine.run_slots(100);
  h.engine.drop_sat_once();
  // The spurious SAT_REC cuts a healthy station out; with auto_rejoin it
  // re-enters through the RAP.
  const auto bound = analysis::sat_time_bound(h.engine.ring_params());
  h.engine.run_slots(3 * bound);
  ASSERT_EQ(h.engine.virtual_ring().size(), 7u);
  h.engine.run_slots(8 * 40 * 10);
  EXPECT_EQ(h.engine.stats().joins_completed, 1u);
  EXPECT_EQ(h.engine.virtual_ring().size(), 8u);
}

TEST(LossyChannel, AutoRejoinKeepsLossyRingPopulated) {
  Config config;
  config.rap_policy = RapPolicy::kRotating;
  config.auto_rejoin = true;
  config.channel.sat = fault::GeParams::iid(0.001);
  Harness h(8, config, 11);
  h.engine.run_slots(60000);
  // Losses happened, cut-outs happened, rejoins happened — and the ring is
  // still near full strength.
  EXPECT_GE(h.engine.stats().sat_losses_detected, 1u);
  EXPECT_GE(h.engine.stats().joins_completed, 1u);
  EXPECT_GE(h.engine.virtual_ring().size(), 6u);
}

TEST(LossyChannel, DeterministicGivenSeed) {
  Config config;
  config.channel.data = fault::GeParams::iid(0.1);
  config.channel.sat = fault::GeParams::iid(0.001);
  const auto run = [&](std::uint64_t seed) {
    Harness h(8, config, seed);
    for (NodeId n = 0; n < 8; ++n) {
      h.engine.add_source(rt_flow(n, n, 8, 24.0));
    }
    h.engine.run_slots(20000);
    return std::tuple{h.engine.stats().frames_lost_link,
                      h.engine.stats().sat_losses_detected,
                      h.engine.stats().sink.total_delivered()};
  };
  EXPECT_EQ(run(9), run(9));
  EXPECT_NE(run(9), run(10));
}

TEST(QuotaRenegotiation, SetStationQuotaTakesEffect) {
  Harness h(6, Config{});
  const NodeId station = h.engine.virtual_ring().station_at(2);
  h.engine.set_station_quota(station, {5, 3});
  EXPECT_EQ(h.engine.station_quota(station), (Quota{5, 3}));
  const auto params = h.engine.ring_params();
  EXPECT_EQ(params.quotas[2], (Quota{5, 3}));
  EXPECT_THROW(h.engine.set_station_quota(99, {1, 1}), std::out_of_range);
}

TEST(QuotaRenegotiation, HigherQuotaRaisesStationThroughput) {
  Config config;
  config.default_quota = {1, 0};
  Harness h(6, config);
  traffic::FlowSpec spec;
  spec.id = 1;
  spec.src = 0;
  spec.dst = 3;
  spec.cls = TrafficClass::kRealTime;
  h.engine.add_saturated_source(spec, 16);
  h.engine.run_slots(3000);
  const auto before = h.engine.stats().sink.total_delivered();
  h.engine.set_station_quota(0, {4, 0});
  h.engine.run_slots(3000);
  const auto delta =
      h.engine.stats().sink.total_delivered() - before;
  // Quadrupled quota: clearly more than 2x the first window's deliveries.
  EXPECT_GT(delta, 2 * before);
}

}  // namespace
}  // namespace wrt::wrtring
