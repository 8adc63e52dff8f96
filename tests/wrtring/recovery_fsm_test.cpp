// RecoveryFsm tests (DESIGN.md §14).
//
// Three layers:
//   1. the pure transition table, checked exhaustively over every
//      (state, request, tuning, guard_active) combination via invariants
//      plus pointwise legacy-parity cases;
//   2. the detached instance (no engine bound): timer bookkeeping, WTB
//      candidate tracking, revertive memory round-trip;
//   3. full-engine property tests: the guard window suppresses a stale
//      SAT_TIMER expiry, heal-cancel rescues an alive station without
//      membership churn, WTR delays re-admission and a flap restarts the
//      clock, revertive re-insertion restores position and quota, and a
//      forced switch holds a station out until cleared plus WTB.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "check/invariants.hpp"
#include "check/test_hooks.hpp"
#include "tests/wrtring/test_helpers.hpp"
#include "wrtring/engine.hpp"
#include "wrtring/recovery_fsm.hpp"

namespace wrt::wrtring {
namespace {

using S = RecoveryState;
using R = RecoveryRequest;
using A = RecoveryAction;

constexpr std::array<S, 4> kStates = {S::kIdle, S::kProtection, S::kPending,
                                      S::kForcedSwitch};
constexpr std::array<R, 11> kRequests = {
    R::kSignalFail,   R::kGracefulLeave, R::kRecoveryComplete,
    R::kRecDeadline,  R::kRingUnrepairable, R::kRebuildComplete,
    R::kForcedSwitch, R::kClearForced,   R::kWtrExpire,
    R::kWtbExpire,    R::kGuardExpire};

RecoveryTuning tuning(std::int64_t guard, std::int64_t wtr, std::int64_t wtb,
                      bool revertive) {
  RecoveryTuning t;
  t.guard_slots = guard;
  t.wtr_slots = wtr;
  t.wtb_slots = wtb;
  t.revertive = revertive;
  return t;
}

// ---------------------------------------------------------------------------
// 1. Pure transition table.
// ---------------------------------------------------------------------------

TEST(RecoveryFsmTable, ExhaustiveInvariants) {
  const std::array<RecoveryTuning, 5> tunings = {
      tuning(0, 0, 0, false),   tuning(32, 0, 0, false),
      tuning(0, 128, 0, false), tuning(0, 0, 64, false),
      tuning(32, 128, 64, true)};
  for (const RecoveryTuning& t : tunings) {
    for (const S state : kStates) {
      for (const R request : kRequests) {
        for (const bool guard : {false, true}) {
          const auto d = RecoveryFsm::transition(state, request, t, guard);
          // Deterministic.
          const auto again = RecoveryFsm::transition(state, request, t, guard);
          EXPECT_EQ(d.next, again.next);
          EXPECT_EQ(d.action, again.action);

          // The core guard_no_stale_rec safety property: no failure
          // indication ever starts a recovery inside the guard window.
          if (guard && request == R::kSignalFail) {
            EXPECT_EQ(d.action, A::kSuppress);
            EXPECT_EQ(d.next, state);
          }
          // A recovery already in flight absorbs duplicate indications.
          if (state == S::kProtection && request == R::kSignalFail) {
            EXPECT_EQ(d.action, A::kSuppress);
          }
          // Recoveries start only from a signal-fail outside the guard.
          if (d.action == A::kStartRecovery) {
            EXPECT_EQ(request, R::kSignalFail);
            EXPECT_FALSE(guard);
          }
          // Rebuilds come only from a deadline overrun or a structurally
          // unrepairable ring — and the latter always re-forms.
          if (d.action == A::kStartRebuild) {
            EXPECT_TRUE(request == R::kRecDeadline ||
                        request == R::kRingUnrepairable);
          }
          if (request == R::kRingUnrepairable) {
            EXPECT_EQ(d.action, A::kStartRebuild);
          }
          // Guard windows open only when configured, only on completion.
          if (d.action == A::kStartGuard) {
            EXPECT_GT(t.guard_slots, 0);
            EXPECT_TRUE(request == R::kRecoveryComplete ||
                        request == R::kRebuildComplete);
          }
          if (d.action == A::kArmWtb) {
            EXPECT_EQ(request, R::kClearForced);
            EXPECT_GT(t.wtb_slots, 0);
          }
          // A forced switch is sticky: only kClearForced leaves the state.
          if (state == S::kForcedSwitch && request != R::kClearForced) {
            EXPECT_EQ(d.next, S::kForcedSwitch);
          }
          if (request == R::kForcedSwitch) {
            EXPECT_EQ(d.next, S::kForcedSwitch);
          }
          if (request == R::kClearForced && state != S::kForcedSwitch) {
            EXPECT_EQ(d.next, state);
            EXPECT_EQ(d.action, A::kNone);
          }
          // Hold-off expiries admit and never change protection state.
          if (request == R::kWtrExpire || request == R::kWtbExpire) {
            EXPECT_EQ(d.next, state);
            EXPECT_EQ(d.action, A::kQueueRejoin);
          }
          // All-defaults tuning must stay on the legacy action set.
          if (t.guard_slots == 0 && t.wtb_slots == 0) {
            EXPECT_NE(d.action, A::kStartGuard);
            EXPECT_NE(d.action, A::kArmWtb);
          }
        }
      }
    }
  }
}

TEST(RecoveryFsmTable, LegacyParityPointwise) {
  const RecoveryTuning defaults = tuning(0, 0, 0, false);
  auto d = RecoveryFsm::transition(S::kIdle, R::kSignalFail, defaults, false);
  EXPECT_EQ(d.next, S::kProtection);
  EXPECT_EQ(d.action, A::kStartRecovery);

  d = RecoveryFsm::transition(S::kProtection, R::kRecoveryComplete, defaults,
                              false);
  EXPECT_EQ(d.next, S::kIdle);
  EXPECT_EQ(d.action, A::kNone);

  d = RecoveryFsm::transition(S::kProtection, R::kRecDeadline, defaults,
                              false);
  EXPECT_EQ(d.next, S::kProtection);
  EXPECT_EQ(d.action, A::kStartRebuild);

  d = RecoveryFsm::transition(S::kProtection, R::kRebuildComplete, defaults,
                              false);
  EXPECT_EQ(d.next, S::kIdle);
  EXPECT_EQ(d.action, A::kNone);
}

TEST(RecoveryFsmTable, GuardedCompletionOpensPendingWindow) {
  const RecoveryTuning guarded = tuning(32, 0, 0, false);
  auto d = RecoveryFsm::transition(S::kProtection, R::kRecoveryComplete,
                                   guarded, false);
  EXPECT_EQ(d.next, S::kPending);
  EXPECT_EQ(d.action, A::kStartGuard);

  d = RecoveryFsm::transition(S::kPending, R::kGuardExpire, guarded, false);
  EXPECT_EQ(d.next, S::kIdle);
  EXPECT_EQ(d.action, A::kNone);

  // A fresh failure straight after the guard closes is handled normally.
  d = RecoveryFsm::transition(S::kPending, R::kSignalFail, guarded, false);
  EXPECT_EQ(d.next, S::kProtection);
  EXPECT_EQ(d.action, A::kStartRecovery);
}

TEST(RecoveryFsmTable, ClearForcedRoutesThroughWtb) {
  auto d = RecoveryFsm::transition(S::kForcedSwitch, R::kClearForced,
                                   tuning(0, 0, 64, false), false);
  EXPECT_EQ(d.next, S::kPending);
  EXPECT_EQ(d.action, A::kArmWtb);

  d = RecoveryFsm::transition(S::kForcedSwitch, R::kClearForced,
                              tuning(0, 0, 0, false), false);
  EXPECT_EQ(d.next, S::kIdle);
  EXPECT_EQ(d.action, A::kQueueRejoin);
}

// ---------------------------------------------------------------------------
// 2. Detached instance (no engine bound).
// ---------------------------------------------------------------------------

TEST(RecoveryFsmDetached, DefaultsMirrorLegacyPaths) {
  RecoveryFsm fsm;
  fsm.bind(nullptr, tuning(0, 0, 0, false));
  EXPECT_EQ(fsm.on_station_cut(3, Quota{1, 1}, 2, 0, false,
                               slots_to_ticks(10)),
            RecoveryFsm::Admit::kNow);
  EXPECT_FALSE(fsm.timers_active());

  EXPECT_TRUE(fsm.on_signal_fail(4, 3, slots_to_ticks(20)));
  EXPECT_EQ(fsm.state(), S::kProtection);
  // Same accused again while the recovery is in flight: dropped as a dup.
  EXPECT_FALSE(fsm.on_signal_fail(5, 3, slots_to_ticks(21)));
  EXPECT_EQ(fsm.stale_rec_suppressed(), 1u);
  EXPECT_EQ(fsm.duplicate_requests_dropped(), 1u);

  fsm.on_recovery_complete(slots_to_ticks(40), 20.0);
  EXPECT_EQ(fsm.state(), S::kIdle);
  EXPECT_FALSE(fsm.timers_active());  // no guard window in defaults
  ASSERT_EQ(fsm.mttr_samples().size(), 1u);
  EXPECT_DOUBLE_EQ(fsm.mttr_samples()[0], 20.0);

  NodeId anchor = kInvalidNode;
  std::uint32_t k1 = 0;
  EXPECT_FALSE(fsm.take_revertive_anchor(3, &anchor, &k1));
}

TEST(RecoveryFsmDetached, GuardWindowLifecycle) {
  RecoveryFsm fsm;
  fsm.bind(nullptr, tuning(32, 0, 0, false));

  EXPECT_TRUE(fsm.on_signal_fail(4, 3, slots_to_ticks(0)));
  fsm.on_recovery_complete(slots_to_ticks(10), 10.0);
  EXPECT_EQ(fsm.state(), S::kPending);
  EXPECT_TRUE(fsm.guard_active(slots_to_ticks(11)));
  EXPECT_TRUE(fsm.timers_active());

  // Inside the window every fresh failure claim is a stale echo.
  EXPECT_FALSE(fsm.on_signal_fail(5, 4, slots_to_ticks(20)));
  EXPECT_GE(fsm.stale_rec_suppressed(), 1u);
  EXPECT_EQ(fsm.state(), S::kPending);

  // Expiry closes the window and returns to idle...
  fsm.tick(slots_to_ticks(50));
  EXPECT_EQ(fsm.state(), S::kIdle);
  EXPECT_FALSE(fsm.guard_active(slots_to_ticks(50)));
  EXPECT_FALSE(fsm.timers_active());

  // ...after which real failures are handled again.
  EXPECT_TRUE(fsm.on_signal_fail(5, 4, slots_to_ticks(60)));
  EXPECT_EQ(fsm.state(), S::kProtection);
}

TEST(RecoveryFsmDetached, ForcedSwitchHoldsUntilClearThenWtb) {
  RecoveryFsm fsm;
  fsm.bind(nullptr, tuning(0, 0, 16, false));

  EXPECT_TRUE(fsm.on_forced_switch(5, slots_to_ticks(0)));
  EXPECT_EQ(fsm.state(), S::kForcedSwitch);
  EXPECT_EQ(fsm.forced_station(), 5u);
  EXPECT_FALSE(fsm.on_forced_switch(5, slots_to_ticks(1)));  // duplicate
  EXPECT_GE(fsm.duplicate_requests_dropped(), 1u);

  EXPECT_EQ(fsm.on_station_cut(5, Quota{2, 1}, 3, 1, true, slots_to_ticks(5)),
            RecoveryFsm::Admit::kHeld);
  EXPECT_TRUE(fsm.tracks_rejoin(5));

  // Held indefinitely while the operator keeps the switch forced.
  for (std::int64_t s = 6; s < 200; s += 7) fsm.tick(slots_to_ticks(s));
  EXPECT_TRUE(fsm.tracks_rejoin(5));

  fsm.on_clear_forced(5, slots_to_ticks(200));
  EXPECT_EQ(fsm.state(), S::kPending);  // kArmWtb
  EXPECT_EQ(fsm.forced_station(), kInvalidNode);

  // WTB clock starts at the first tick after the clear; 15 < 16 holds.
  fsm.tick(slots_to_ticks(201));
  fsm.tick(slots_to_ticks(216));
  EXPECT_TRUE(fsm.tracks_rejoin(5));
  fsm.tick(slots_to_ticks(217));  // 16 slots continuously healthy
  EXPECT_FALSE(fsm.tracks_rejoin(5));
}

TEST(RecoveryFsmDetached, WtbZeroAdmitsImmediatelyOnClear) {
  RecoveryFsm fsm;
  fsm.bind(nullptr, tuning(0, 0, 0, false));
  EXPECT_TRUE(fsm.on_forced_switch(7, slots_to_ticks(0)));
  EXPECT_EQ(fsm.on_station_cut(7, Quota{1, 1}, 6, 0, true, slots_to_ticks(3)),
            RecoveryFsm::Admit::kHeld);
  fsm.on_clear_forced(7, slots_to_ticks(10));
  EXPECT_FALSE(fsm.tracks_rejoin(7));
  EXPECT_EQ(fsm.state(), S::kIdle);
}

TEST(RecoveryFsmDetached, RevertiveMemoryRoundTrips) {
  RecoveryFsm fsm;
  fsm.bind(nullptr, tuning(0, 0, 0, true));
  EXPECT_EQ(fsm.on_station_cut(4, Quota{3, 2}, 2, 7, false,
                               slots_to_ticks(0)),
            RecoveryFsm::Admit::kHeld);
  // wtr = 0: admitted on the first healthy tick, into revertive memory.
  fsm.tick(slots_to_ticks(1));
  EXPECT_FALSE(fsm.tracks_rejoin(4));

  NodeId anchor = kInvalidNode;
  std::uint32_t k1 = 0;
  ASSERT_TRUE(fsm.take_revertive_anchor(4, &anchor, &k1));
  EXPECT_EQ(anchor, 2u);
  EXPECT_EQ(k1, 7u);
  // The memory is consumed by the take.
  EXPECT_FALSE(fsm.take_revertive_anchor(4, &anchor, &k1));
}

// ---------------------------------------------------------------------------
// 3. Full-engine property tests.
// ---------------------------------------------------------------------------

Config protected_config(std::int64_t guard, std::int64_t wtr,
                        std::int64_t wtb, bool revertive) {
  Config config;
  config.rap_policy = RapPolicy::kRotating;
  config.auto_rejoin = true;
  config.guard_slots = guard;
  config.wtr_slots = wtr;
  config.wtb_slots = wtb;
  config.revertive = revertive;
  return config;
}

/// Backdates `detector`'s SAT_TIMER so the engine reads it as long expired —
/// the stale-SAT_REC stimulus.  The accused station is the detector's ring
/// predecessor (Section 2.5).
NodeId inject_stale_expiry(Engine& engine, NodeId detector) {
  const NodeId accused = engine.virtual_ring().predecessor(detector);
  check::EngineTestHook::age_sat_timer(engine, detector, 100000);
  return accused;
}

TEST(RecoveryFsmEngine, BaselineWithoutGuardCutsHealthyStation) {
  testing::Harness harness(8, Config{}, 1);
  harness.engine.run_slots(500);
  const NodeId detector = harness.engine.virtual_ring().station_at(3);
  const NodeId accused = inject_stale_expiry(harness.engine, detector);
  harness.engine.run_slots(300);

  // The paper's bare recovery chain acts on the stale claim: the healthy
  // station is cut out — the weakness the guard window exists to fix.
  EXPECT_EQ(harness.engine.stats().cut_outs, 1u);
  EXPECT_EQ(harness.engine.stats().spurious_cutouts, 1u);
  EXPECT_FALSE(harness.engine.virtual_ring().contains(accused));
  EXPECT_EQ(harness.engine.virtual_ring().size(), 7u);
}

TEST(RecoveryFsmEngine, GuardWindowSuppressesStaleExpiry) {
  testing::Harness harness(8, protected_config(64, 0, 0, false), 1);
  harness.engine.run_slots(500);
  check::EngineTestHook::open_guard(harness.engine);
  inject_stale_expiry(harness.engine,
                      harness.engine.virtual_ring().station_at(3));
  harness.engine.run_slots(16);  // well inside the 64-slot window

  const RecoveryFsm& fsm = harness.engine.recovery_fsm();
  EXPECT_GE(fsm.stale_rec_suppressed(), 1u);
  EXPECT_EQ(harness.engine.stats().cut_outs, 0u);
  EXPECT_EQ(harness.engine.stats().spurious_cutouts, 0u);
  EXPECT_EQ(harness.engine.virtual_ring().size(), 8u);

  check::InvariantAuditor auditor(harness.engine);
  EXPECT_EQ(auditor.run("guard-suppression"), 0u);
}

TEST(RecoveryFsmEngine, HealCancelRescuesAliveStationOutsideGuard) {
  testing::Harness harness(8, protected_config(64, 0, 0, false), 1);
  harness.engine.run_slots(500);
  const NodeId detector = harness.engine.virtual_ring().station_at(3);
  inject_stale_expiry(harness.engine, detector);
  harness.engine.run_slots(300);

  // Outside the guard the SAT_REC launches, but the accused station proves
  // alive and reachable, so the REC resolves in place: zero churn.
  const RecoveryFsm& fsm = harness.engine.recovery_fsm();
  EXPECT_GE(fsm.stale_rec_suppressed(), 1u);
  EXPECT_GE(harness.engine.stats().sat_recoveries, 1u);
  EXPECT_EQ(harness.engine.stats().cut_outs, 0u);
  EXPECT_EQ(harness.engine.stats().spurious_cutouts, 0u);
  EXPECT_EQ(harness.engine.virtual_ring().size(), 8u);

  check::InvariantAuditor auditor(harness.engine);
  EXPECT_EQ(auditor.run("heal-cancel"), 0u);
}

TEST(RecoveryFsmEngine, WtrDelaysReadmissionAndFlapRestartsClock) {
  // guard = 0 so the stale claim actually cuts (the WTR stimulus).
  testing::Harness harness(8, protected_config(0, 400, 0, false), 1);
  harness.engine.run_slots(500);
  const NodeId detector = harness.engine.virtual_ring().station_at(3);
  const NodeId victim = inject_stale_expiry(harness.engine, detector);
  harness.engine.run_slots(100);

  const RecoveryFsm& fsm = harness.engine.recovery_fsm();
  ASSERT_EQ(harness.engine.stats().cut_outs, 1u);
  ASSERT_FALSE(harness.engine.virtual_ring().contains(victim));
  EXPECT_TRUE(fsm.tracks_rejoin(victim));
  EXPECT_EQ(fsm.wtr_holdoffs(), 1u);

  // Well short of the 400-slot hold-off: still held out.
  harness.engine.run_slots(250);
  EXPECT_FALSE(harness.engine.virtual_ring().contains(victim));

  // A flap during the hold-off restarts the clock.
  harness.engine.stall_station(victim);
  harness.engine.run_slots(30);
  harness.engine.resume_station(victim);
  harness.engine.run_slots(30);
  EXPECT_GE(fsm.wtr_flap_restarts(), 1u);
  EXPECT_FALSE(harness.engine.virtual_ring().contains(victim));
  EXPECT_TRUE(fsm.tracks_rejoin(victim));

  // After a full continuously-healthy window (plus RAP time) it is back.
  harness.engine.run_slots(2000);
  EXPECT_TRUE(harness.engine.virtual_ring().contains(victim));
  EXPECT_FALSE(fsm.tracks_rejoin(victim));
  EXPECT_EQ(harness.engine.virtual_ring().size(), 8u);

  // wtr_no_flap_readmit corroborates: no admission undercut its hold-off.
  check::InvariantAuditor auditor(harness.engine);
  EXPECT_EQ(auditor.run("wtr-holdoff"), 0u);
}

TEST(RecoveryFsmEngine, RevertiveReinsertionRestoresPositionAndQuota) {
  testing::Harness harness(8, protected_config(0, 0, 0, true), 1);
  harness.engine.run_slots(500);

  const NodeId victim = harness.engine.virtual_ring().station_at(2);
  const NodeId anchor = harness.engine.virtual_ring().predecessor(victim);
  const NodeId detector = harness.engine.virtual_ring().successor(victim);
  harness.engine.set_station_quota(victim, Quota{3, 2});
  harness.engine.run_slots(100);  // quota takes effect at a SAT release

  inject_stale_expiry(harness.engine, detector);
  harness.engine.run_slots(2500);

  ASSERT_EQ(harness.engine.stats().cut_outs, 1u);
  ASSERT_TRUE(harness.engine.virtual_ring().contains(victim));
  // Re-inserted at its original position, after the same predecessor...
  EXPECT_EQ(harness.engine.virtual_ring().predecessor(victim), anchor);
  // ...with its original quota.
  const analysis::RingParams params = harness.engine.ring_params();
  const ring::VirtualRing& ring = harness.engine.virtual_ring();
  for (std::size_t pos = 0; pos < ring.size(); ++pos) {
    if (ring.station_at(pos) != victim) continue;
    EXPECT_EQ(params.quotas[pos].l, 3);
    EXPECT_EQ(params.quotas[pos].k, 2);
  }

  // revertive_position_restored corroborates the recorded outcome.
  check::InvariantAuditor auditor(harness.engine);
  EXPECT_EQ(auditor.run("revertive"), 0u);
}

TEST(RecoveryFsmEngine, ForcedSwitchHoldsOutUntilClearedThenWtb) {
  testing::Harness harness(8, protected_config(0, 0, 300, false), 1);
  harness.engine.run_slots(500);
  const NodeId victim = harness.engine.virtual_ring().station_at(4);

  ASSERT_TRUE(harness.engine.force_switch(victim).ok());
  // Duplicate forces are rejected while one is active — any node.
  EXPECT_FALSE(harness.engine.force_switch(victim).ok());
  EXPECT_FALSE(
      harness.engine.force_switch(harness.engine.virtual_ring().station_at(1))
          .ok());

  harness.engine.run_slots(400);  // graceful leave completes
  const RecoveryFsm& fsm = harness.engine.recovery_fsm();
  ASSERT_FALSE(harness.engine.virtual_ring().contains(victim));
  EXPECT_EQ(fsm.forced_station(), victim);
  EXPECT_TRUE(fsm.tracks_rejoin(victim));

  // Held out indefinitely until the operator clears the switch.
  harness.engine.run_slots(800);
  EXPECT_FALSE(harness.engine.virtual_ring().contains(victim));

  harness.engine.clear_force_switch(victim);
  EXPECT_EQ(fsm.forced_station(), kInvalidNode);
  harness.engine.run_slots(150);  // < wtb_slots: WTB still holding
  EXPECT_FALSE(harness.engine.virtual_ring().contains(victim));

  harness.engine.run_slots(2000);
  EXPECT_TRUE(harness.engine.virtual_ring().contains(victim));
  EXPECT_FALSE(fsm.tracks_rejoin(victim));

  check::InvariantAuditor auditor(harness.engine);
  EXPECT_EQ(auditor.run("forced-switch"), 0u);
}

TEST(RecoveryFsmEngine, WtbZeroReadmitsPromptlyAfterClear) {
  testing::Harness harness(8, protected_config(0, 0, 0, false), 1);
  harness.engine.run_slots(500);
  const NodeId victim = harness.engine.virtual_ring().station_at(4);

  ASSERT_TRUE(harness.engine.force_switch(victim).ok());
  harness.engine.run_slots(400);
  ASSERT_FALSE(harness.engine.virtual_ring().contains(victim));

  harness.engine.clear_force_switch(victim);
  harness.engine.run_slots(1500);
  EXPECT_TRUE(harness.engine.virtual_ring().contains(victim));
  EXPECT_EQ(harness.engine.virtual_ring().size(), 8u);
}

}  // namespace
}  // namespace wrt::wrtring
