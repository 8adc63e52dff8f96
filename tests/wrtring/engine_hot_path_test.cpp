// Regression tests for the position-indexed hot-path restructure:
//  * full-queue drops are attributed to the right class (the enqueue move
//    is committed only on acceptance),
//  * the rotation anchor survives SAT_REC cut-outs and graceful leaves
//    (stats_.sat_rounds must keep advancing),
//  * fixed-seed runs are bit-identical,
//  * the position index and dense vectors stay aligned across churn.
#include <gtest/gtest.h>

#include "analysis/bounds.hpp"
#include "wrtring/engine.hpp"

#include "test_helpers.hpp"

namespace wrt::wrtring {
namespace {

using testing::Harness;
using testing::be_flow;
using testing::rt_flow;

TEST(DropAccounting, FullQueueDropsAttributedToRealTimeClass) {
  // One packet per slot into a quota of l=1 per SAT round: the queue fills
  // in a few rounds and every further arrival must be dropped AND recorded
  // against the real-time class.
  Config config;
  config.queue_capacity = 4;
  Harness h(8, config);
  h.engine.add_source(rt_flow(1, 0, 8, /*period_slots=*/1.0));
  h.engine.run_slots(2000);

  const auto& stats = h.engine.stats();
  const std::uint64_t station_drops = h.engine.queue_drops(0);
  EXPECT_GT(station_drops, 0u);
  // No stale purges in a stable ring, so every sink drop came from the
  // enqueue path and carries the rejected packet's (intact) class.
  EXPECT_EQ(stats.frames_dropped_stale, 0u);
  EXPECT_EQ(stats.sink.by_class(TrafficClass::kRealTime).dropped,
            station_drops);
  EXPECT_EQ(stats.sink.by_class(TrafficClass::kAssured).dropped, 0u);
  EXPECT_EQ(stats.sink.by_class(TrafficClass::kBestEffort).dropped, 0u);
}

TEST(RotationAnchor, RoundsKeepAdvancingAfterAnchorCutOut) {
  // Killing the round-counting anchor station forces the SAT_REC cut-out to
  // re-anchor; before the fix stats_.sat_rounds froze forever.
  Harness h(8, Config{});
  h.engine.run_slots(50);
  const NodeId anchor = h.engine.virtual_ring().station_at(0);
  h.engine.kill_station(anchor);
  h.engine.run_slots(4 * analysis::sat_time_bound(h.engine.ring_params()));
  ASSERT_EQ(h.engine.stats().sat_recoveries, 1u);
  ASSERT_FALSE(h.engine.virtual_ring().contains(anchor));
  const auto rounds = h.engine.stats().sat_rounds;
  h.engine.run_slots(200);
  EXPECT_GT(h.engine.stats().sat_rounds, rounds);
}

TEST(RotationAnchor, RoundsKeepAdvancingAfterAnchorGracefulLeave) {
  Harness h(8, Config{});
  h.engine.run_slots(50);
  const NodeId anchor = h.engine.virtual_ring().station_at(0);
  ASSERT_TRUE(h.engine.request_leave(anchor).ok());
  h.engine.run_slots(500);
  ASSERT_EQ(h.engine.stats().leaves_completed, 1u);
  ASSERT_FALSE(h.engine.virtual_ring().contains(anchor));
  EXPECT_EQ(h.engine.stats().ring_rebuilds, 0u);
  const auto rounds = h.engine.stats().sat_rounds;
  h.engine.run_slots(200);
  EXPECT_GT(h.engine.stats().sat_rounds, rounds);
}

TEST(Determinism, FixedSeedRunsAreBitIdentical) {
  const auto build = [](Harness& h) {
    h.engine.add_source(rt_flow(1, 0, 12, /*period_slots=*/4.0));
    h.engine.add_source(rt_flow(2, 5, 12, /*period_slots=*/6.0));
    h.engine.add_source(be_flow(3, 2, 12, /*rate_per_slot=*/0.3));
    h.engine.add_source(be_flow(4, 9, 12, /*rate_per_slot=*/0.2));
  };
  Config config;
  config.channel.data = fault::GeParams::iid(0.01);  // exercise the RNG path
  Harness a(12, config, /*seed=*/7);
  Harness b(12, config, /*seed=*/7);
  build(a);
  build(b);
  a.engine.run_slots(4000);
  b.engine.run_slots(4000);

  const auto& sa = a.engine.stats();
  const auto& sb = b.engine.stats();
  EXPECT_EQ(sa.sat_rounds, sb.sat_rounds);
  EXPECT_EQ(sa.sat_hops, sb.sat_hops);
  EXPECT_EQ(sa.data_transmissions, sb.data_transmissions);
  EXPECT_EQ(sa.transit_forwards, sb.transit_forwards);
  EXPECT_EQ(sa.frames_lost_link, sb.frames_lost_link);
  EXPECT_EQ(sa.sink.total_delivered(), sb.sink.total_delivered());
  for (const TrafficClass cls :
       {TrafficClass::kRealTime, TrafficClass::kBestEffort}) {
    EXPECT_EQ(sa.sink.by_class(cls).delivered, sb.sink.by_class(cls).delivered);
    EXPECT_EQ(sa.sink.by_class(cls).dropped, sb.sink.by_class(cls).dropped);
    EXPECT_EQ(sa.sink.by_class(cls).delay_slots.mean(),
              sb.sink.by_class(cls).delay_slots.mean());
  }
  EXPECT_EQ(sa.access_delay_slots.count(), sb.access_delay_slots.count());
  EXPECT_EQ(sa.access_delay_slots.mean(), sb.access_delay_slots.mean());
  EXPECT_EQ(sa.sat_rotation_slots.mean(), sb.sat_rotation_slots.mean());
}

TEST(PositionIndex, StaysAlignedAcrossMembershipChurn) {
  Harness h(10, Config{});
  h.engine.add_source(rt_flow(1, 1, 10));
  h.engine.run_slots(100);
  ASSERT_TRUE(h.engine.check_invariants().ok());

  // Crash-failure cut-out.
  const NodeId victim = h.engine.virtual_ring().station_at(4);
  h.engine.kill_station(victim);
  const std::int64_t bound =
      4 * analysis::sat_time_bound(h.engine.ring_params());
  for (std::int64_t i = 0; i < bound; ++i) {
    h.engine.step();
    ASSERT_TRUE(h.engine.check_invariants().ok()) << "slot " << i;
  }
  ASSERT_FALSE(h.engine.virtual_ring().contains(victim));
  EXPECT_THROW((void)h.engine.station_quota(victim), std::out_of_range);

  // Graceful leave of another member.
  const NodeId leaver = h.engine.virtual_ring().station_at(2);
  ASSERT_TRUE(h.engine.request_leave(leaver).ok());
  for (int i = 0; i < 500; ++i) {
    h.engine.step();
    ASSERT_TRUE(h.engine.check_invariants().ok()) << "slot " << i;
  }
  ASSERT_EQ(h.engine.stats().leaves_completed, 1u);
  EXPECT_EQ(h.engine.virtual_ring().size(), 8u);

  // Every survivor is still reachable by id; check_invariants() above
  // holds each one to its ring position.
  const auto& ring = h.engine.virtual_ring();
  for (std::size_t p = 0; p < ring.size(); ++p) {
    EXPECT_NO_THROW((void)h.engine.station_quota(ring.station_at(p)));
  }
}

}  // namespace
}  // namespace wrt::wrtring
