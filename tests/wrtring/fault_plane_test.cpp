// Fault-plane semantics at the engine level: stall/resume (a wedged station
// is cut out and rejoins on resume), partition teardown accounting, the
// degrade/heal link override, and the per-purpose RNG isolation contract
// (enabling data loss must not move SAT behaviour).
#include <gtest/gtest.h>

#include <tuple>

#include "analysis/bounds.hpp"
#include "fault/gilbert_elliott.hpp"
#include "tests/wrtring/test_helpers.hpp"
#include "wrtring/engine.hpp"

namespace wrt::wrtring {
namespace {

using testing::Harness;
using testing::rt_flow;

Config resilient_config() {
  Config config;
  config.rap_policy = RapPolicy::kRotating;
  config.auto_rejoin = true;
  return config;
}

std::uint64_t accounted_frames(const Engine& engine) {
  const EngineStats& stats = engine.stats();
  return stats.sink.total_delivered() + stats.frames_lost_link +
         stats.frames_lost_rebuild + stats.frames_lost_churn +
         stats.frames_dropped_stale + engine.frames_in_flight();
}

TEST(FaultPlane, StalledStationIsCutOutAndStaysOut) {
  Harness h(8, resilient_config(), 21);
  h.engine.run_slots(200);
  h.engine.stall_station(3);
  EXPECT_TRUE(h.engine.station_stalled(3));
  // The wedged station swallows the SAT; detection + SAT_REC cut it out.
  // Mis-blamed healthy neighbours auto-rejoin, the stalled one cannot.
  h.engine.run_slots(8000);
  EXPECT_GE(h.engine.stats().sat_losses_detected, 1u);
  EXPECT_FALSE(h.engine.virtual_ring().contains(3));
  EXPECT_EQ(h.engine.virtual_ring().size(), 7u);
  EXPECT_TRUE(h.engine.sat_state() == SatState::kInTransit ||
              h.engine.sat_state() == SatState::kHeld);
  EXPECT_TRUE(h.engine.check_invariants().ok());
}

TEST(FaultPlane, ResumeRejoinsTheRing) {
  Harness h(8, resilient_config(), 21);
  h.engine.run_slots(200);
  h.engine.stall_station(3);
  h.engine.run_slots(8000);
  ASSERT_FALSE(h.engine.virtual_ring().contains(3));
  h.engine.resume_station(3);
  EXPECT_FALSE(h.engine.station_stalled(3));
  h.engine.run_slots(8000);
  EXPECT_TRUE(h.engine.virtual_ring().contains(3));
  EXPECT_EQ(h.engine.virtual_ring().size(), 8u);
  EXPECT_TRUE(h.engine.check_invariants().ok());
}

TEST(FaultPlane, PartitionAndRejoinSplitTheLossBuckets) {
  Harness h(12, resilient_config(), 5);
  for (NodeId n = 0; n < 12; ++n) {
    h.engine.add_source(rt_flow(n, n, 12, 6.0));
  }
  h.engine.run_slots(500);
  h.topology.set_partition({{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9, 10, 11}});
  h.engine.run_slots(6000);
  const EngineStats& mid = h.engine.stats();
  EXPECT_GE(mid.ring_rebuilds, 1u);
  // Frames caught crossing the cut die on a broken hop: that is link loss,
  // not teardown loss.
  EXPECT_GT(mid.frames_lost_link, 0u);
  EXPECT_LE(h.engine.virtual_ring().size(), 6u);
  EXPECT_EQ(mid.data_transmissions, accounted_frames(h.engine));

  h.topology.clear_partition();
  for (NodeId n = 0; n < 12; ++n) {
    if (!h.engine.virtual_ring().contains(n)) {
      h.engine.request_join(n, {1, 1});
    }
  }
  h.engine.run_slots(12000);
  EXPECT_EQ(h.engine.virtual_ring().size(), 12u);
  // Re-admitting stations while traffic flows tears down in-flight frames
  // (the ring order changes under them): joins are healthy churn, so the
  // loss lands in the churn bucket and must inflate neither the rebuild
  // nor the link-quality bucket.
  EXPECT_GT(h.engine.stats().frames_lost_churn, 0u)
      << "join teardowns must land in frames_lost_churn";
  EXPECT_EQ(h.engine.stats().data_transmissions, accounted_frames(h.engine));
  EXPECT_TRUE(h.engine.check_invariants().ok());
}

TEST(FaultPlane, DegradeAndHealLinkOverride) {
  Config config = resilient_config();
  Harness h(8, config, 13);
  for (NodeId n = 0; n < 8; ++n) {
    h.engine.add_source(rt_flow(n, n, 8, 8.0));
  }
  h.engine.run_slots(500);
  ASSERT_EQ(h.engine.stats().frames_lost_link, 0u);

  const NodeId a = h.engine.virtual_ring().station_at(0);
  const NodeId b = h.engine.virtual_ring().successor(a);
  h.engine.degrade_link(a, b, fault::GeParams::bursty(0.5, 4.0));
  h.engine.run_slots(4000);
  const std::uint64_t lost_during = h.engine.stats().frames_lost_link;
  EXPECT_GT(lost_during, 0u) << "degraded ring link must lose data frames";

  h.engine.heal_link(a, b);
  // Let any in-flight recovery settle, then measure a clean window.
  h.engine.run_slots(
      4 * analysis::sat_time_bound(h.engine.ring_params()));
  const std::uint64_t settled = h.engine.stats().frames_lost_link;
  h.engine.run_slots(4000);
  EXPECT_EQ(h.engine.stats().frames_lost_link, settled)
      << "healed link must stop losing frames";
  EXPECT_TRUE(h.engine.sat_state() == SatState::kInTransit ||
              h.engine.sat_state() == SatState::kHeld);
  EXPECT_EQ(h.engine.stats().data_transmissions, accounted_frames(h.engine));
}

/// Per-purpose stream isolation at the engine level: enabling control loss
/// when the handshake never runs (no joiners) makes zero control draws, so
/// the whole trajectory — including the SAT and data planes, which draw
/// from their own streams — is bit-identical to the control-clean run.
TEST(FaultPlane, UnusedControlLossIsAPerfectNoOp) {
  const auto trajectory = [](bool with_control_loss) {
    // RAP disabled: the handshake never runs, so the control purpose is
    // never offered a message (auto_rejoin would create joiners).
    Config config;
    config.channel.sat = fault::GeParams::iid(0.004);
    config.channel.data = fault::GeParams::bursty(0.1, 8.0);
    if (with_control_loss) {
      config.channel.control = fault::GeParams::iid(0.5);
    }
    Harness h(8, config, 31);
    for (NodeId n = 0; n < 8; ++n) {
      h.engine.add_source(rt_flow(n, n, 8, 16.0));
    }
    h.engine.run_slots(20000);
    return std::tuple{h.engine.stats().sat_rounds,
                      h.engine.stats().sat_losses_detected,
                      h.engine.stats().sat_recoveries,
                      h.engine.stats().frames_lost_link,
                      h.engine.stats().sink.total_delivered(),
                      h.engine.stats().control_messages_lost};
  };
  const auto clean = trajectory(false);
  const auto armed = trajectory(true);
  EXPECT_EQ(clean, armed);
  EXPECT_EQ(std::get<5>(armed), 0u);
}

/// Data loss must never touch the SAT recovery machinery — the bursty
/// analogue of LossyChannel.FrameLossDoesNotTouchTheSat (i.i.d. loss).
TEST(FaultPlane, BurstyDataLossDoesNotTouchTheSat) {
  Config config;
  config.channel.data = fault::GeParams::bursty(0.3, 16.0);
  Harness h(8, config, 37);
  for (NodeId n = 0; n < 8; ++n) {
    h.engine.add_source(rt_flow(n, n, 8, 8.0));
  }
  h.engine.run_slots(10000);
  EXPECT_GT(h.engine.stats().frames_lost_link, 0u);
  EXPECT_EQ(h.engine.stats().sat_losses_detected, 0u);
  EXPECT_EQ(h.engine.stats().ring_rebuilds, 0u);
}

TEST(FaultPlane, AccountingIdentityHoldsUnderBurstyLossAndChurn) {
  Config config = resilient_config();
  config.channel.data = fault::GeParams::bursty(0.1, 16.0);
  config.channel.sat = fault::GeParams::iid(0.002);
  Harness h(10, config, 23);
  for (NodeId n = 0; n < 10; ++n) {
    h.engine.add_source(rt_flow(n, n, 10, 6.0));
  }
  h.engine.run_slots(5000);
  h.engine.kill_station(h.engine.virtual_ring().station_at(4));
  h.engine.run_slots(5000);
  h.engine.stall_station(h.engine.virtual_ring().station_at(1));
  h.engine.run_slots(5000);
  const EngineStats& stats = h.engine.stats();
  EXPECT_GT(stats.frames_lost_link, 0u);
  EXPECT_EQ(stats.data_transmissions, accounted_frames(h.engine));
  EXPECT_TRUE(h.engine.check_invariants().ok());
}

}  // namespace
}  // namespace wrt::wrtring
