// Section 2.3's per-station class independence: "any single station can
// decide the number of classes of services to implement.  These classes
// are provided to its own traffic, without affecting and without being
// affected by the behavior of the other stations."
#include <gtest/gtest.h>

#include "tests/wrtring/test_helpers.hpp"
#include "wrtring/engine.hpp"

namespace wrt::wrtring {
namespace {

using testing::Harness;

traffic::FlowSpec saturated(FlowId id, NodeId src, NodeId dst,
                            TrafficClass cls) {
  traffic::FlowSpec spec;
  spec.id = id;
  spec.src = src;
  spec.dst = dst;
  spec.cls = cls;
  return spec;
}

TEST(PerStationSplit, SetterValidates) {
  Config config;
  config.default_quota = {1, 3};
  Harness h(6, config);
  EXPECT_NO_THROW(h.engine.set_station_split(0, 2));
  EXPECT_EQ(h.engine.station_split(0), 2u);
  EXPECT_THROW(h.engine.set_station_split(0, 4), std::invalid_argument);
  EXPECT_THROW(h.engine.set_station_split(99, 1), std::out_of_range);
}

TEST(PerStationSplit, DifferentStationsDifferentClasses) {
  // Station 0 reserves 3 of its k = 4 for Assured; station 3 keeps the
  // plain two-class behaviour (k1 = 0, priority only).  Both saturated in
  // Assured + BE toward their successors.
  Config config;
  config.default_quota = {0, 4};
  Harness h(8, config);
  h.engine.set_station_split(0, 3);

  for (const NodeId src : {NodeId{0}, NodeId{3}}) {
    const NodeId dst = h.engine.virtual_ring().successor(src);
    h.engine.add_saturated_source(
        saturated(src * 2 + 1, src, dst, TrafficClass::kAssured), 8);
    h.engine.add_saturated_source(
        saturated(src * 2 + 2, src, dst, TrafficClass::kBestEffort), 8);
  }
  h.engine.run_slots(8000);
  const auto& per_flow = h.engine.stats().sink.per_flow();

  // Station 0 (split 3/1): Assured gets ~3x the BE throughput.
  const double s0_ratio =
      static_cast<double>(per_flow.at(1).count()) /
      static_cast<double>(per_flow.at(2).count());
  EXPECT_NEAR(s0_ratio, 3.0, 0.5);

  // Station 3 (no split): strict priority starves BE entirely under
  // Assured saturation.
  EXPECT_GT(per_flow.at(7).count(), 1000u);
  EXPECT_EQ(per_flow.count(8), 0u);
}

TEST(PerStationSplit, SplitDoesNotAffectNeighbours) {
  Config config;
  config.default_quota = {1, 2};
  const auto run = [&](bool with_split) {
    Harness h(8, config, 3);
    if (with_split) h.engine.set_station_split(0, 2);
    // Only station 4 carries traffic; station 0's split must not matter.
    h.engine.add_saturated_source(
        saturated(1, 4, h.engine.virtual_ring().successor(4),
                  TrafficClass::kBestEffort),
        8);
    h.engine.run_slots(4000);
    return h.engine.stats().sink.total_delivered();
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(RingUtilization, TracksLoad) {
  Config config;
  config.default_quota = {4, 0};
  Harness idle(12, config, 3);
  idle.engine.run_slots(2000);
  EXPECT_NEAR(idle.engine.ring_utilization(), 0.0, 1e-9);

  Harness loaded(12, config, 3);
  for (NodeId n = 0; n < 12; ++n) {
    loaded.engine.add_saturated_source(
        saturated(n, n, loaded.engine.virtual_ring().successor(n),
                  TrafficClass::kRealTime),
        8);
  }
  loaded.engine.run_slots(4000);
  const double utilization = loaded.engine.ring_utilization();
  EXPECT_GT(utilization, 0.2);
  EXPECT_LE(utilization, 1.0);
}

TEST(RingUtilization, HigherUnderTransitTraffic) {
  // Ring-crossing traffic occupies ~N/2 links per delivered packet, so at
  // equal delivered throughput the utilisation is far higher than for
  // neighbour traffic.
  Config config;
  config.default_quota = {2, 0};
  Harness neighbour(12, config, 3);
  Harness crossing(12, config, 3);
  for (NodeId n = 0; n < 12; ++n) {
    neighbour.engine.add_saturated_source(
        saturated(n, n, neighbour.engine.virtual_ring().successor(n),
                  TrafficClass::kRealTime),
        8);
    crossing.engine.add_saturated_source(
        saturated(n, n,
                  crossing.engine.virtual_ring().station_at(
                      crossing.engine.virtual_ring().position_of(n) + 6),
                  TrafficClass::kRealTime),
        8);
  }
  neighbour.engine.run_slots(6000);
  crossing.engine.run_slots(6000);
  EXPECT_GT(crossing.engine.ring_utilization(),
            1.5 * neighbour.engine.ring_utilization());
}

}  // namespace
}  // namespace wrt::wrtring
