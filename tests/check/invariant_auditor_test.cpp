// Fault-injection coverage for the invariant registry: each EngineTestHook
// corruption must trip exactly the named check it targets, in the auditor
// and, under the same name, in Engine::check_invariants(); an uncorrupted
// engine must audit clean.  The corruptions are states the protocol cannot
// reach on its own, so every test discards the engine afterwards instead
// of stepping it further.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "check/invariants.hpp"
#include "check/test_hooks.hpp"
#include "tests/wrtring/test_helpers.hpp"
#include "wrtring/engine.hpp"

namespace wrt::check {
namespace {

class InvariantAuditorTest : public ::testing::Test {
 protected:
  InvariantAuditorTest() : harness_(8, wrtring::Config{}, 1) {
    harness_.engine.add_source(wrtring::testing::rt_flow(0, 0, 8));
    harness_.engine.add_source(wrtring::testing::be_flow(1, 3, 8));
    harness_.engine.run_slots(500);
  }

  /// Audits once and asserts that exactly `name` reported violations, and
  /// that check_invariants() reports the same law first — or, for the
  /// Theorem oracles it does not run, passes.
  void expect_only(const std::string& name) {
    auditor_.run("fault-injection");
    for (const CheckStats& stats : auditor_.check_stats()) {
      if (stats.name == name) {
        EXPECT_GT(stats.violations, 0u)
            << "check '" << name << "' did not fire";
      } else {
        EXPECT_EQ(stats.violations, 0u)
            << "unexpected violations from '" << stats.name << "'";
      }
    }
    EXPECT_FALSE(auditor_.clean());
    EXPECT_EQ(auditor_.total_violations(), auditor_.violation_count(name));

    const util::Status status = harness_.engine.check_invariants();
    if (name == "theorem1-oracle" || name == "theorem2-oracle") {
      EXPECT_TRUE(status.ok()) << status.error().message;
      return;
    }
    ASSERT_FALSE(status.ok()) << "check_invariants() missed '" << name << "'";
    EXPECT_EQ(status.error().message.rfind(name + ": ", 0), 0u)
        << status.error().message;
  }

  wrtring::testing::Harness harness_;
  InvariantAuditor auditor_{harness_.engine};
};

TEST_F(InvariantAuditorTest, CleanEngineAuditsClean) {
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(auditor_.run("manual"), 0u);
    harness_.engine.run_slots(37);
  }
  EXPECT_TRUE(auditor_.clean());
  EXPECT_EQ(auditor_.audits_run(), 20u);
  EXPECT_TRUE(auditor_.violations().empty());
}

TEST_F(InvariantAuditorTest, RegistryNamesAreStable) {
  // The engine's ten structural checks in Engine::kInvariantChecks order,
  // then the auditor's two stateful oracles.
  const std::vector<std::string> expected = {
      "ring-lockstep",       "position-bijection",
      "single-sat",          "rap-mutex",
      "quota-conservation",  "link-pipeline",
      "frame-conservation",  "guard_no_stale_rec",
      "wtr_no_flap_readmit", "revertive_position_restored",
      "theorem1-oracle",     "theorem2-oracle"};
  EXPECT_EQ(InvariantAuditor::check_names(), expected);
  const std::vector<CheckStats> stats = auditor_.check_stats();
  ASSERT_EQ(stats.size(), expected.size());
  for (std::size_t i = 0; i < stats.size(); ++i) {
    EXPECT_EQ(stats[i].name, expected[i]);
  }
  EXPECT_EQ(auditor_.violation_count("no-such-check"), 0u);
}

TEST_F(InvariantAuditorTest, DesyncedPositionIndexTripsBijection) {
  ASSERT_EQ(auditor_.run("baseline"), 0u);
  EngineTestHook::desync_position_index(harness_.engine,
                                        harness_.engine.virtual_ring()
                                            .station_at(2));
  expect_only("position-bijection");
}

TEST_F(InvariantAuditorTest, SwappedStationsTripRingLockstep) {
  ASSERT_EQ(auditor_.run("baseline"), 0u);
  EngineTestHook::swap_adjacent_stations(harness_.engine, 3);
  expect_only("ring-lockstep");
}

TEST_F(InvariantAuditorTest, DesyncedArrivalCountTripsRingLockstep) {
  ASSERT_EQ(auditor_.run("baseline"), 0u);
  EngineTestHook::desync_arrival_count(harness_.engine);
  expect_only("ring-lockstep");
  EXPECT_NE(harness_.engine.check_invariants().error().message.find(
                "SAT arrival ring out of lockstep"),
            std::string::npos);
}

TEST_F(InvariantAuditorTest, NarrowedArrivalStrideTripsRingLockstep) {
  ASSERT_EQ(auditor_.run("baseline"), 0u);
  EngineTestHook::narrow_arrival_stride(harness_.engine);
  expect_only("ring-lockstep");
  EXPECT_NE(harness_.engine.check_invariants().error().message.find(
                "SAT arrival ring out of lockstep"),
            std::string::npos);
}

TEST_F(InvariantAuditorTest, SatAtNonMemberTripsSingleSat) {
  ASSERT_EQ(auditor_.run("baseline"), 0u);
  EngineTestHook::corrupt_sat_location(harness_.engine);
  expect_only("single-sat");
}

TEST_F(InvariantAuditorTest, SatArrivalInPastTripsSingleSat) {
  ASSERT_EQ(auditor_.run("baseline"), 0u);
  EngineTestHook::sat_arrival_in_past(harness_.engine);
  expect_only("single-sat");
}

TEST_F(InvariantAuditorTest, DanglingRapOwnerTripsRapMutex) {
  ASSERT_EQ(auditor_.run("baseline"), 0u);
  EngineTestHook::dangling_rap_owner(harness_.engine);
  expect_only("rap-mutex");
}

TEST_F(InvariantAuditorTest, PhantomRapTripsRapMutex) {
  ASSERT_EQ(auditor_.run("baseline"), 0u);
  EngineTestHook::phantom_rap(harness_.engine);
  expect_only("rap-mutex");
}

TEST_F(InvariantAuditorTest, OverQuotaCounterTripsQuotaConservation) {
  ASSERT_EQ(auditor_.run("baseline"), 0u);
  EngineTestHook::force_over_quota(harness_.engine,
                                   harness_.engine.virtual_ring()
                                       .station_at(1));
  expect_only("quota-conservation");
}

TEST_F(InvariantAuditorTest, PhantomLinkFrameTripsLinkPipeline) {
  ASSERT_EQ(auditor_.run("baseline"), 0u);
  EngineTestHook::phantom_link_frame(harness_.engine, 5);
  expect_only("link-pipeline");
}

TEST_F(InvariantAuditorTest, DesyncedBusyLinkBitTripsLinkPipeline) {
  ASSERT_EQ(auditor_.run("baseline"), 0u);
  EngineTestHook::desync_link_busy(harness_.engine, 5);
  expect_only("link-pipeline");
}

TEST_F(InvariantAuditorTest, AliasingCalendarTripsLinkPipeline) {
  ASSERT_EQ(auditor_.run("baseline"), 0u);
  EngineTestHook::alias_calendar(harness_.engine);
  expect_only("link-pipeline");
  EXPECT_NE(harness_.engine.check_invariants().error().message.find(
                "rotation calendar has 8 buckets"),
            std::string::npos)
      << harness_.engine.check_invariants().error().message;
}

TEST_F(InvariantAuditorTest, LeakedFrameTripsFrameConservation) {
  ASSERT_EQ(auditor_.run("baseline"), 0u);
  EngineTestHook::leak_frame(harness_.engine);
  expect_only("frame-conservation");
}

TEST_F(InvariantAuditorTest, ForgedRotationBeyondBoundTripsTheorem1) {
  ASSERT_EQ(auditor_.run("baseline"), 0u);
  const wrtring::Engine& engine = harness_.engine;
  const Tick bound =
      slots_to_ticks(analysis::sat_time_bound(engine.ring_params()));
  // Two arrivals, both after the audit horizon, spaced exactly at the
  // (strict) Theorem-1 bound.
  const Tick base = engine.now() + slots_to_ticks(1);
  EngineTestHook::forge_sat_history(harness_.engine,
                                    engine.virtual_ring().station_at(0),
                                    {base, base + bound});
  expect_only("theorem1-oracle");
}

TEST_F(InvariantAuditorTest, ForgedSpanBeyondNRoundBoundTripsTheorem2) {
  ASSERT_EQ(auditor_.run("baseline"), 0u);
  const wrtring::Engine& engine = harness_.engine;
  // Five arrivals each spaced one slot *under* the Theorem-1 bound keep
  // theorem1-oracle quiet, but the 4-round span exceeds the Eq (3) bound:
  // 4*(bound1 - 1) > bound2 whenever 3 * sum(l_j + k_j) > 4 slots.
  const Tick gap =
      slots_to_ticks(analysis::sat_time_bound(engine.ring_params()) - 1);
  const Tick base = engine.now() + slots_to_ticks(1);
  std::vector<Tick> history;
  for (Tick i = 0; i < 5; ++i) history.push_back(base + i * gap);
  EngineTestHook::forge_sat_history(harness_.engine,
                                    engine.virtual_ring().station_at(0),
                                    history);
  expect_only("theorem2-oracle");
}

TEST_F(InvariantAuditorTest, ForgedHistoryKeepsTheNewest64) {
  const NodeId node = harness_.engine.virtual_ring().station_at(0);
  std::vector<Tick> arrivals;
  for (Tick i = 0; i < 100; ++i) arrivals.push_back(1000 + 10 * i);
  EngineTestHook::forge_sat_history(harness_.engine, node, arrivals);
  const std::vector<Tick> kept(arrivals.end() - 64, arrivals.end());
  EXPECT_EQ(harness_.engine.sat_arrival_history(node), kept);

  // A shorter forgery replaces the history outright.
  EngineTestHook::forge_sat_history(harness_.engine, node, {5, 7});
  EXPECT_EQ(harness_.engine.sat_arrival_history(node),
            (std::vector<Tick>{5, 7}));
}

TEST_F(InvariantAuditorTest, OraclesCanBeDisabled) {
  AuditOptions options;
  options.theorem_oracles = false;
  InvariantAuditor no_oracles(harness_.engine, options);
  ASSERT_EQ(no_oracles.run("baseline"), 0u);
  const Tick base = harness_.engine.now() + slots_to_ticks(1);
  EngineTestHook::forge_sat_history(
      harness_.engine, harness_.engine.virtual_ring().station_at(0),
      {base, base + slots_to_ticks(1000000)});
  EXPECT_EQ(no_oracles.run("forged"), 0u);
  EXPECT_TRUE(no_oracles.clean());
}

TEST_F(InvariantAuditorTest, GuardViolationTripsGuardNoStaleRec) {
  ASSERT_EQ(auditor_.run("baseline"), 0u);
  EngineTestHook::force_guard_violation(harness_.engine);
  expect_only("guard_no_stale_rec");
}

TEST_F(InvariantAuditorTest, UndercutHoldoffTripsWtrNoFlapReadmit) {
  ASSERT_EQ(auditor_.run("baseline"), 0u);
  EngineTestHook::force_wtr_violation(harness_.engine, 17);
  expect_only("wtr_no_flap_readmit");
}

TEST_F(InvariantAuditorTest, MismatchedAnchorTripsRevertivePositionRestored) {
  ASSERT_EQ(auditor_.run("baseline"), 0u);
  EngineTestHook::force_revertive_mismatch(harness_.engine);
  expect_only("revertive_position_restored");
}

TEST_F(InvariantAuditorTest, ViolationRecordsCarryContext) {
  ASSERT_EQ(auditor_.run("baseline"), 0u);
  EngineTestHook::phantom_link_frame(harness_.engine, 2);
  ASSERT_GT(auditor_.run("tagged-event"), 0u);
  ASSERT_FALSE(auditor_.violations().empty());
  const Violation& violation = auditor_.violations().front();
  EXPECT_EQ(violation.check, "link-pipeline");
  EXPECT_EQ(violation.event, "tagged-event");
  EXPECT_EQ(violation.at, harness_.engine.now());
  EXPECT_NE(violation.detail.find("link 2 carries a frame"), std::string::npos);
}

}  // namespace
}  // namespace wrt::check
