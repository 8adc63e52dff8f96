// Accounting regressions for the slot-kernel bugfix sweep (PR 6):
//
//   1. Bare step() drivers must see exact registry totals — snapshot()
//      drains the engine's staged TelemetryBatch, so counters no longer
//      lag by up to kTelemetryFlushSlots when nobody calls run_slots().
//   2. In-flight frames discarded when a join splices the ring are churn
//      losses (frames_lost_churn), not teardown losses — a graceful join
//      is not a rebuild, and dashboards alerting on frames_lost_rebuild
//      must not fire on healthy admissions.
//   3. The stale-frame purge (hops > R + 1) is reachable: after a graceful
//      leave, frames addressed to the ex-member keep entering the ring and
//      must be purged instead of circulating forever.
//   4. Every frame the data plane loses on a hop — at a silent station, on
//      an unreachable hop, or to the channel — is one frames_lost count in
//      the registry, matching EngineStats::frames_lost_link.
#include <cstdint>

#include <gtest/gtest.h>

#include "phy/topology.hpp"
#include "telemetry/registry.hpp"
#include "wrtring/engine.hpp"

namespace wrt::wrtring {
namespace {

phy::Topology small_room(std::size_t n) {
  return phy::Topology(phy::placement::circle(n, 10.0),
                       phy::RadioParams{25.0, 0.0});
}

void saturate_all(Engine& engine, std::size_t members, NodeId dst_shift) {
  for (NodeId node = 0; node < members; ++node) {
    traffic::FlowSpec spec;
    spec.id = node;
    spec.src = node;
    spec.dst = static_cast<NodeId>((node + dst_shift) % members);
    spec.cls = TrafficClass::kRealTime;
    engine.add_saturated_source(spec, 4);
  }
}

std::uint64_t accounted(const Engine& engine) {
  const EngineStats& stats = engine.stats();
  return stats.sink.total_delivered() + stats.frames_lost_link +
         stats.frames_lost_rebuild + stats.frames_lost_churn +
         stats.frames_dropped_stale + engine.frames_in_flight();
}

// Satellite 1: a driver that never calls run_slots() must still read exact
// totals from a registry snapshot.  163 bare step() calls end mid-flush
// interval (163 & 63 != 0), so without the snapshot-time drain the
// slots_stepped delta would be short by the staged remainder.
TEST(EngineAccounting, BareStepTotalsVisibleInSnapshot) {
  if (!telemetry::kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  const std::size_t n = 8;
  phy::Topology topology = small_room(n);
  Engine engine(&topology, Config{}, /*seed=*/3);
  saturate_all(engine, n, static_cast<NodeId>(n / 2));
  ASSERT_TRUE(engine.init().ok());

  const auto& registry = telemetry::MetricRegistry::instance();
  const telemetry::RegistrySnapshot before = registry.snapshot();
  const int kSteps = 163;
  for (int i = 0; i < kSteps; ++i) engine.step();
  const telemetry::RegistrySnapshot after = registry.snapshot();
  EXPECT_EQ(after.counter(telemetry::CounterId::kSlotsStepped) -
                before.counter(telemetry::CounterId::kSlotsStepped),
            static_cast<std::uint64_t>(kSteps));
  // Deliveries staged between flush boundaries must be visible too; the
  // engine is fresh, so the snapshot delta is exactly its sink total.
  EXPECT_EQ(after.counter(telemetry::CounterId::kDeliveries) -
                before.counter(telemetry::CounterId::kDeliveries),
            engine.stats().sink.total_delivered());
}

// Satellite 2: join-path drops are churn, not rebuild.  The RAP halts
// injections for T_rap slots, so only frames with a long way to go are
// still in flight at the update phase: every flow is addressed 14 hops
// downstream.  The splice at join completion must charge them to
// frames_lost_churn while the teardown counter stays zero (nothing was
// rebuilt or recovered).
TEST(EngineAccounting, JoinDropsChargeChurnNotRebuild) {
  const std::size_t n = 16;
  phy::Topology topology = small_room(n);
  Config config;
  config.rap_policy = RapPolicy::kRotating;
  config.s_round_min = 4;
  config.members.resize(n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    config.members[i] = static_cast<NodeId>(i);
  }
  Engine engine(&topology, config, /*seed=*/3);
  saturate_all(engine, n - 1, static_cast<NodeId>(n - 2));
  ASSERT_TRUE(engine.init().ok());

  engine.run_slots(256);
  engine.request_join(static_cast<NodeId>(n - 1), Quota{1, 1});
  engine.run_slots(4000);

  const EngineStats& stats = engine.stats();
  ASSERT_EQ(stats.joins_completed, 1u);
  EXPECT_GT(stats.frames_lost_churn, 0u);
  EXPECT_EQ(stats.frames_lost_rebuild, 0u);
  EXPECT_EQ(stats.data_transmissions, accounted(engine));
  EXPECT_TRUE(engine.check_invariants().ok());
}

// Satellite 3: every station floods the eventual leaver, so after the
// graceful leave the ring carries frames addressed to a non-member; they
// must hit the hops > R + 1 purge rather than orbiting indefinitely.
TEST(EngineAccounting, StalePurgeReachableAfterLeave) {
  const std::size_t n = 8;
  const NodeId leaver = 5;
  phy::Topology topology = small_room(n);
  Engine engine(&topology, Config{}, /*seed=*/3);
  for (NodeId node = 0; node < n; ++node) {
    traffic::FlowSpec spec;
    spec.id = node;
    spec.src = node;
    spec.dst = node == leaver ? NodeId{0} : leaver;
    spec.cls = TrafficClass::kRealTime;
    engine.add_saturated_source(spec, 4);
  }
  ASSERT_TRUE(engine.init().ok());

  engine.run_slots(256);
  EXPECT_EQ(engine.stats().frames_dropped_stale, 0u);
  ASSERT_TRUE(engine.request_leave(leaver).ok());
  engine.run_slots(512);

  const EngineStats& stats = engine.stats();
  EXPECT_EQ(stats.leaves_completed, 1u);
  EXPECT_GT(stats.frames_dropped_stale, 0u);
  EXPECT_EQ(stats.data_transmissions, accounted(engine));
  EXPECT_TRUE(engine.check_invariants().ok());
}

// Item 4: a hard link break and a stall under saturated traffic.
// Frames forwarded onto the broken hop and frames arriving at the wedged
// station are both frames_lost_link; the registry must count each one.
TEST(EngineAccounting, FramesLostTelemetryMatchesStats) {
  if (!telemetry::kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  const std::size_t n = 16;
  phy::Topology topology = small_room(n);
  Engine engine(&topology, Config{}, /*seed=*/3);
  saturate_all(engine, n, static_cast<NodeId>(n / 2));
  ASSERT_TRUE(engine.init().ok());
  engine.run_slots(128);

  const auto& registry = telemetry::MetricRegistry::instance();
  const telemetry::RegistrySnapshot before = registry.snapshot();
  const std::uint64_t lost_before = engine.stats().frames_lost_link;

  const NodeId from = engine.virtual_ring().station_at(9);
  const NodeId to = engine.virtual_ring().station_at(10);
  topology.fail_link(from, to);
  engine.run_slots(8);
  topology.restore_link(from, to);
  engine.run_slots(256);
  const std::uint64_t lost_to_break =
      engine.stats().frames_lost_link - lost_before;

  const NodeId wedged = engine.virtual_ring().station_at(5);
  engine.stall_station(wedged);
  engine.run_slots(40);
  engine.resume_station(wedged);
  engine.run_slots(64);

  const std::uint64_t lost = engine.stats().frames_lost_link - lost_before;
  EXPECT_GT(lost_to_break, 0u);
  EXPECT_GT(lost, lost_to_break);
  const telemetry::RegistrySnapshot after = registry.snapshot();
  EXPECT_EQ(after.counter(telemetry::CounterId::kFramesLost) -
                before.counter(telemetry::CounterId::kFramesLost),
            lost);
  EXPECT_EQ(engine.stats().data_transmissions, accounted(engine));
}

}  // namespace
}  // namespace wrt::wrtring
