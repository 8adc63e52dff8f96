#include "wrtring/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "tests/wrtring/test_helpers.hpp"

namespace wrt::wrtring {
namespace {

using testing::Harness;

bool log_contains(const std::vector<Scenario::LogEntry>& log,
                  const std::string& needle) {
  return std::any_of(log.begin(), log.end(),
                     [&](const Scenario::LogEntry& entry) {
                       return entry.what.find(needle) != std::string::npos;
                     });
}

TEST(Scenario, AppliesActionsAtScriptedSlots) {
  Harness h(10, Config{});
  Scenario scenario;
  scenario.kill_at(200, h.engine.virtual_ring().station_at(4))
      .mark_at(100, "checkpoint");
  const auto log = scenario.run(h.engine, h.topology, 2000);
  ASSERT_TRUE(log_contains(log, "kill station"));
  ASSERT_TRUE(log_contains(log, "checkpoint"));
  // The marker fired before the kill despite insertion order.
  const auto mark = std::find_if(log.begin(), log.end(),
                                 [](const auto& e) {
                                   return e.what == "checkpoint";
                                 });
  const auto kill = std::find_if(log.begin(), log.end(), [](const auto& e) {
    return e.what.find("kill") != std::string::npos;
  });
  ASSERT_NE(mark, log.end());
  ASSERT_NE(kill, log.end());
  EXPECT_LT(mark->slot, kill->slot);
  // The automatic ring-size entry follows the recovery.
  EXPECT_TRUE(log_contains(log, "ring shrank"));
  EXPECT_EQ(h.engine.virtual_ring().size(), 9u);
}

TEST(Scenario, JoinScript) {
  Config config;
  config.rap_policy = RapPolicy::kRotating;
  Harness h(6, config);
  const phy::Vec2 mid =
      (h.topology.position(0) + h.topology.position(1)) * 0.5;
  const NodeId joiner = h.topology.add_node(mid);
  Scenario scenario;
  scenario.join_at(50, joiner, {1, 1});
  const auto log = scenario.run(h.engine, h.topology, 12000);
  EXPECT_TRUE(log_contains(log, "join request"));
  EXPECT_TRUE(log_contains(log, "ring grew"));
  EXPECT_TRUE(h.engine.virtual_ring().contains(joiner));
}

TEST(Scenario, LeaveRefusalIsLogged) {
  Harness h(3, Config{});
  Scenario scenario;
  scenario.leave_at(10, h.engine.virtual_ring().station_at(0));
  const auto log = scenario.run(h.engine, h.topology, 100);
  EXPECT_TRUE(log_contains(log, "leave refused"));
  EXPECT_EQ(h.engine.virtual_ring().size(), 3u);
}

TEST(Scenario, LinkFailureAndRestore) {
  Harness h(8, Config{});
  const NodeId a = h.engine.virtual_ring().station_at(1);
  const NodeId b = h.engine.virtual_ring().station_at(2);
  Scenario scenario;
  scenario.fail_link_at(100, a, b).restore_link_at(150, a, b);
  const auto log = scenario.run(h.engine, h.topology, 1500);
  EXPECT_TRUE(log_contains(log, "fail link"));
  EXPECT_TRUE(log_contains(log, "restore link"));
  EXPECT_TRUE(h.topology.reachable(a, b));
}

TEST(Scenario, DropSatTimeline) {
  Harness h(8, Config{});
  Scenario scenario;
  scenario.drop_sat_at(100);
  const auto log = scenario.run(h.engine, h.topology, 2000);
  EXPECT_TRUE(log_contains(log, "drop SAT"));
  EXPECT_EQ(h.engine.stats().sat_losses_detected, 1u);
}

TEST(Scenario, LogCarriesRingStateSnapshots) {
  Harness h(8, Config{});
  Scenario scenario;
  scenario.mark_at(10, "snap");
  const auto log = scenario.run(h.engine, h.topology, 100);
  const auto snap = std::find_if(log.begin(), log.end(), [](const auto& e) {
    return e.what == "snap";
  });
  ASSERT_NE(snap, log.end());
  EXPECT_EQ(snap->ring_size, 8u);
}

TEST(Scenario, MobilityHookRuns) {
  Harness h(8, Config{}, 1, 3.0);
  phy::WaypointParams params;
  params.leash_radius = 0.3;
  params.slot_seconds = 1e-3;
  phy::BoundedRandomWaypoint mobility(phy::Rect{{-30, -30}, {30, 30}},
                                      params, 3);
  mobility.bind(h.topology);
  const phy::Vec2 before = h.topology.position(0);
  Scenario scenario;
  (void)scenario.run(h.engine, h.topology, 20000, &mobility, 50);
  // Tight leash: ring survives; position drifted at least a little.
  EXPECT_EQ(h.engine.virtual_ring().size(), 8u);
  const double moved = phy::distance(h.topology.position(0), before);
  EXPECT_GT(moved, 0.0);
  EXPECT_LE(moved, 0.3 + 1e-6);
}

TEST(Scenario, FlapExpandsIntoBreakHealPairsPerCycle) {
  Harness h(8, Config{});
  Scenario scenario;
  scenario.flap_link_at(100, 0, 1, /*period_slots=*/40, /*duty_pct=*/25,
                        /*cycles=*/3);
  const auto log = scenario.run(h.engine, h.topology, 400);
  std::size_t fails = 0;
  std::size_t restores = 0;
  std::int64_t first_fail = -1;
  std::int64_t first_restore = -1;
  for (const Scenario::LogEntry& entry : log) {
    if (entry.what == "fail link 0-1") {
      if (fails == 0) first_fail = entry.slot;
      ++fails;
    }
    if (entry.what == "restore link 0-1") {
      if (restores == 0) first_restore = entry.slot;
      ++restores;
    }
  }
  // One break/restore pair per cycle; down for period * duty / 100 slots.
  EXPECT_EQ(fails, 3u);
  EXPECT_EQ(restores, 3u);
  EXPECT_EQ(first_fail, 100);
  EXPECT_EQ(first_restore, 110);
}

TEST(Scenario, SecondRunResumesWhereTheFirstStopped) {
  Harness h(8, Config{});
  Scenario scenario;
  scenario.drop_sat_at(100).mark_at(50, "checkpoint");
  const auto first = scenario.run(h.engine, h.topology, 1000);
  EXPECT_TRUE(log_contains(first, "checkpoint"));
  EXPECT_TRUE(log_contains(first, "drop SAT"));
  const std::size_t ring_size = h.engine.virtual_ring().size();

  // Nothing already applied runs again; an event added between the calls
  // is applied by the next one.
  scenario.mark_at(1500, "late");
  const auto second = scenario.run(h.engine, h.topology, 2000);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].what, "late");
  EXPECT_EQ(second[0].slot, 1500);
  EXPECT_EQ(h.engine.stats().sat_losses_detected, 1u);
  EXPECT_EQ(h.engine.virtual_ring().size(), ring_size);
}

TEST(Scenario, EventNamingAnUnknownStationIsRefused) {
  Harness h(8, Config{});
  const NodeId unknown = 99;
  Scenario scenario;
  scenario.kill_at(100, unknown)
      .stall_at(110, unknown)
      .join_at(120, unknown, {1, 1})
      .force_switch_at(130, unknown)
      .degrade_link_at(140, 0, unknown, fault::GeParams::iid(0.5));
  const auto log = scenario.run(h.engine, h.topology, 500);
  // Each refusal comes first, then the event's own entry.
  ASSERT_EQ(log.size(), 10u);
  EXPECT_EQ(log[0].what,
            "crash refused: station 99 is not in the topology (8 stations)");
  EXPECT_EQ(log[1].what, "kill station 99");
  EXPECT_EQ(log[2].what.rfind("stall refused: ", 0), 0u);
  EXPECT_EQ(log[4].what.rfind("join refused: ", 0), 0u);
  EXPECT_EQ(log[6].what.rfind("force switch refused: ", 0), 0u);
  EXPECT_EQ(log[8].what.rfind("link degrade refused: ", 0), 0u);
  EXPECT_EQ(log[9].what, "degrade link 0-99");
  EXPECT_EQ(h.topology.node_count(), 8u);
  EXPECT_EQ(h.engine.virtual_ring().size(), 8u);
  EXPECT_EQ(h.engine.stats().sat_losses_detected, 0u);
}

TEST(Scenario, DropControlOutsideTheHandshakeIsRefused) {
  Harness h(8, Config{});
  // parse() rejects such a message; an event built in code can carry it.
  fault::FaultEvent event;
  event.slot = 100;
  event.kind = fault::FaultKind::kDropControl;
  event.control_msg = 3;
  fault::FaultPlan plan;
  plan.add(event);
  Scenario scenario;
  scenario.apply_plan(plan);
  const auto log = scenario.run(h.engine, h.topology, 200);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].what.rfind("drop control refused: ", 0), 0u);
  EXPECT_EQ(log[1].what, "drop control message 3");
}

TEST(Scenario, ForcedSwitchScriptHoldsAndReleasesStation) {
  Config config;
  config.rap_policy = RapPolicy::kRotating;
  config.auto_rejoin = true;
  Harness h(8, config);
  const NodeId victim = h.engine.virtual_ring().station_at(4);
  Scenario scenario;
  scenario.force_switch_at(100, victim).clear_switch_at(2000, victim);
  const auto log = scenario.run(h.engine, h.topology, 12000);
  EXPECT_TRUE(log_contains(log, "force switch station"));
  EXPECT_TRUE(log_contains(log, "clear forced switch station"));
  // Forced out via graceful leave, re-admitted after the clear (wtb = 0).
  EXPECT_TRUE(log_contains(log, "ring shrank"));
  EXPECT_TRUE(h.engine.virtual_ring().contains(victim));
  EXPECT_EQ(h.engine.virtual_ring().size(), 8u);
}

}  // namespace
}  // namespace wrt::wrtring
