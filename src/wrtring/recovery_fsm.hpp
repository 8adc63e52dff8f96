// ERPS-grade recovery state machine for WRT-Ring (DESIGN.md §14).
//
// The paper's recovery story is the bare SAT_TIMER -> SAT_REC -> re-form
// chain (Sections 2.4.2/2.5), and the engine reproduces it faithfully —
// including its weaknesses: a stale SAT_REC cuts a healthy station out
// during state churn, a flapping link re-triggers a full recovery on every
// heal/fail cycle, and a recovered station re-enters at an arbitrary ring
// position.  RecoveryFsm is the single decision funnel for all of those
// paths, shaped after carrier-grade Ethernet ring protection (ITU-T G.8032
// ERPS): an explicit per-ring state machine with
//
//   * a guard window — for `guard_slots` after a recovery or rebuild
//     completes, fresh SAT_TIMER expiries are treated as stale echoes of
//     the event just survived and suppressed (the detector's timer is
//     re-armed instead of generating a new SAT_REC);
//   * heal cancellation — a SAT_REC about to cut out a station that is
//     demonstrably alive and reachable again (the flapping-link case) is
//     forwarded through it instead, so the ring re-establishes with zero
//     membership churn;
//   * WTR (wait-to-restore) hold-off — a station cut out by recovery must
//     stay continuously healthy for `wtr_slots` before it is re-admitted;
//     a flap during the hold-off restarts the clock (WTB is the same
//     hold-off for operator-forced switches, cleared explicitly);
//   * revertive re-insertion — in revertive mode a re-admitted station is
//     inserted back at its original ring position (after the same
//     predecessor, with its original quota and Diffserv split), so
//     rotation history and the Theorem 1/2 bounds survive the blip;
//   * request de-duplication — the last failed station is tracked so
//     the same failure observed repeatedly generates one recovery, not N.
//
// Digest contract: in the all-defaults configuration (guard_slots = 0,
// wtr_slots = 0, wtb_slots = 0, revertive = false, no forced switches) the
// FSM routes every request straight into the legacy engine action in the
// identical order — the engine is bit-identical to the pre-FSM chain, and
// the SoA digest oracles gate that.  All new behaviour is opt-in.
//
// The core transition function is pure and static (state x request x
// tuning -> next state + action) so tests can table-check every pair
// without an engine; the instance wraps it with timer bookkeeping, rejoin
// candidate tracking, telemetry, and the engine callbacks.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "util/flat_map.hpp"
#include "util/types.hpp"

namespace wrt::check {
struct EngineTestHook;
}  // namespace wrt::check

namespace wrt::wrtring {

class Engine;

/// Protection-switching states (ERPS idiom mapped onto WRT-Ring).
enum class RecoveryState : std::uint8_t {
  kIdle,          ///< plain SAT circulating, no recovery in progress
  kProtection,    ///< SAT_REC in flight or ring re-formation under way
  kPending,       ///< recovery done; guard window / hold-offs still open
  kForcedSwitch,  ///< operator holds a station out of the ring
};

/// Everything that can ask the FSM for a recovery decision.
enum class RecoveryRequest : std::uint8_t {
  kSignalFail,        ///< SAT_TIMER expiry (detector blames its predecessor)
  kGracefulLeave,     ///< successor converted the SAT into a SAT_REC
  kRecoveryComplete,  ///< SAT_REC returned to its origin
  kRecDeadline,       ///< SAT_REC overran its deadline
  kRingUnrepairable,  ///< cut-out impossible (R <= 3 or split ring)
  kRebuildComplete,   ///< full ring re-formation finished
  kForcedSwitch,      ///< operator forces a station out
  kClearForced,       ///< operator releases the forced switch
  kWtrExpire,         ///< wait-to-restore hold-off satisfied
  kWtbExpire,         ///< wait-to-block hold-off satisfied
  kGuardExpire,       ///< guard window closed
};

/// What the engine must do about a request (at most one per transition).
enum class RecoveryAction : std::uint8_t {
  kNone,           ///< bookkeeping only
  kStartRecovery,  ///< generate the SAT_REC (legacy start_recovery)
  kStartRebuild,   ///< tear down and re-form (legacy start_rebuild)
  kSuppress,       ///< stale/duplicate request: re-arm the timer, no action
  kStartGuard,     ///< open the guard window (when guard_slots > 0)
  kArmWtb,         ///< start the wait-to-block hold-off
  kQueueRejoin,    ///< hold-off satisfied: queue the station's rejoin
};

/// The opt-in knobs (mirrored from Config so the pure transition function
/// does not depend on the full engine configuration).
struct RecoveryTuning {
  std::int64_t guard_slots = 0;
  std::int64_t wtr_slots = 0;
  std::int64_t wtb_slots = 0;
  bool revertive = false;
};

class RecoveryFsm {
 public:
  struct Decision {
    RecoveryState next = RecoveryState::kIdle;
    RecoveryAction action = RecoveryAction::kNone;
  };

  /// Pure transition table: (state, request) -> (next state, action) under
  /// the given tuning.  `guard_active` is the only piece of timer state the
  /// table depends on.  Exhaustively checked by the FSM table test.
  [[nodiscard]] static Decision transition(RecoveryState state,
                                           RecoveryRequest request,
                                           const RecoveryTuning& tuning,
                                           bool guard_active) noexcept;

  RecoveryFsm() = default;

  /// Binds the FSM to its engine and tuning.  A detached FSM (engine ==
  /// nullptr, as the table tests use) records transitions but performs no
  /// engine actions.
  void bind(Engine* engine, const RecoveryTuning& tuning) {
    engine_ = engine;
    tuning_ = tuning;
  }

  [[nodiscard]] const RecoveryTuning& tuning() const noexcept {
    return tuning_;
  }
  [[nodiscard]] RecoveryState state() const noexcept { return state_; }

  // -- requests from the engine's recovery paths ---------------------------

  /// SAT_TIMER expiry at `detector`.  Returns true when the recovery was
  /// started (legacy path); false when the request was suppressed as stale
  /// or duplicate (the detector's timer is re-armed by the engine).
  bool on_signal_fail(NodeId detector, NodeId accused, Tick now);

  /// The successor converted the SAT into a graceful-leave SAT_REC.
  void on_graceful_leave(NodeId leaver, Tick now);

  /// SAT_REC returned to its origin; `mttr_slots` is loss -> restored when
  /// a ground-truth loss instant exists (< 0 otherwise).
  void on_recovery_complete(Tick now, double mttr_slots);

  /// The SAT_REC overran its deadline; the engine must re-form the ring.
  void on_rec_deadline(Tick now);

  /// A cut-out is structurally impossible (ring would drop below three
  /// stations, or the bypass hop is unreachable); re-form unconditionally.
  void on_ring_unrepairable(Tick now);

  /// finish_rebuild() ran; the ring is circulating again.
  void on_rebuild_complete(Tick now, double mttr_slots);

  /// A stale SAT_REC was cancelled in flight (the accused station proved
  /// alive and reachable); opens the guard window like a completion.
  void on_stale_rec_cancelled(Tick now);

  // -- rejoin admission (WTR / WTB / revertive) ----------------------------

  /// Verdict for a station cut out of the ring.
  enum class Admit : std::uint8_t {
    kNow,   ///< legacy path: the engine queues the rejoin immediately
    kHeld,  ///< FSM tracks the candidate; tick() admits it later
  };

  /// Called from the cut-out path with the station's pre-cut identity:
  /// `anchor` is its ring predecessor at cut time, `quota`/`k1` its
  /// allocation.  Default tuning returns kNow (bit-identical legacy
  /// behaviour); with WTR/WTB/revertive enabled the candidate is held.
  Admit on_station_cut(NodeId node, Quota quota, NodeId anchor,
                       std::uint32_t k1, bool forced, Tick now);

  /// Whether the FSM is already tracking a rejoin for `node` (the engine's
  /// resume path must not race it with a default-quota join).
  [[nodiscard]] bool tracks_rejoin(NodeId node) const noexcept;

  /// Revertive memory for a joiner about to complete its handshake:
  /// returns true and fills `anchor`/`k1` when a revertive re-insertion is
  /// recorded for `node` (the memory is consumed).
  bool take_revertive_anchor(NodeId node, NodeId* anchor, std::uint32_t* k1);

  /// Records the outcome of a revertive insertion for the
  /// revertive_position_restored invariant.
  void record_revert_outcome(NodeId node, NodeId anchor,
                             std::uint64_t membership_epoch);

  // -- operator-forced switches -------------------------------------------

  /// Operator forces `node` out (FaultPlan force-switch).  Returns false
  /// on a duplicate request (already forced).
  bool on_forced_switch(NodeId node, Tick now);
  /// Releases the forced switch; re-admission waits out WTB.
  void on_clear_forced(NodeId node, Tick now);
  [[nodiscard]] NodeId forced_station() const noexcept { return forced_; }

  // -- timers --------------------------------------------------------------

  /// True when tick() has work: open guard window or held candidates.
  [[nodiscard]] bool timers_active() const noexcept {
    return guard_until_ != kNeverTick || !candidates_.empty();
  }

  /// Advances the guard window and the per-candidate WTR/WTB clocks; called
  /// once per slot while timers_active().
  void tick(Tick now);

  [[nodiscard]] bool guard_active(Tick now) const noexcept {
    return guard_until_ != kNeverTick && now < guard_until_;
  }

  // -- observability -------------------------------------------------------

  [[nodiscard]] std::uint64_t stale_rec_suppressed() const noexcept {
    return stale_rec_suppressed_;
  }
  [[nodiscard]] std::uint64_t duplicate_requests_dropped() const noexcept {
    return duplicate_requests_dropped_;
  }
  [[nodiscard]] std::uint64_t wtr_holdoffs() const noexcept {
    return wtr_holdoffs_;
  }
  [[nodiscard]] std::uint64_t wtr_flap_restarts() const noexcept {
    return wtr_flap_restarts_;
  }
  /// Loss -> restored durations (slots), bounded; the chaos matrix computes
  /// p50/p99 MTTR from these.
  [[nodiscard]] const std::vector<double>& mttr_samples() const noexcept {
    return mttr_samples_;
  }

 private:
  friend class Engine;  // its invariant table reads the audit bookkeeping
  friend struct ::wrt::check::EngineTestHook;

  /// A station waiting out its WTR/WTB hold-off before re-admission.
  struct RejoinCandidate {
    NodeId node = kInvalidNode;
    Quota quota{1, 1};
    NodeId anchor = kInvalidNode;  ///< ring predecessor at cut time
    std::uint32_t k1 = 0;          ///< Diffserv split at cut time
    Tick healthy_since = kNeverTick;
    bool forced = false;  ///< WTB candidate: held until clear_forced
    bool cleared = false; ///< forced switch released; WTB clock running
  };

  /// Revertive re-insertion outcome, validated by revertive_position_restored
  /// while the membership epoch it was recorded under is still current.
  struct RevertOutcome {
    NodeId node = kInvalidNode;
    NodeId anchor = kInvalidNode;
    std::uint64_t epoch = 0;
  };

  void enter(RecoveryState next, Tick now);
  void open_guard(Tick now);
  void record_mttr(double mttr_slots);
  void admit(RejoinCandidate& candidate, Tick now);

  // wrt-lint-allow(cross-shard-handle): the FSM drives its OWN ring's engine — same shard by construction
  Engine* engine_ = nullptr;
  RecoveryTuning tuning_;
  RecoveryState state_ = RecoveryState::kIdle;

  Tick guard_until_ = kNeverTick;

  // Request de-duplication: the last failure this FSM acted on.
  NodeId last_failed_ = kInvalidNode;

  std::vector<RejoinCandidate> candidates_;
  util::FlatMap<NodeId, RejoinCandidate> revertive_memory_;
  RevertOutcome last_revert_;
  NodeId forced_ = kInvalidNode;

  std::uint64_t stale_rec_suppressed_ = 0;
  std::uint64_t duplicate_requests_dropped_ = 0;
  std::uint64_t wtr_holdoffs_ = 0;
  std::uint64_t wtr_flap_restarts_ = 0;

  // Audit bookkeeping for the engine's invariant table
  // (src/wrtring/invariants.cpp):
  // guard_no_stale_rec — a recovery must never start inside the guard.
  bool accepted_sf_during_guard_ = false;
  // wtr_no_flap_readmit — worst (continuous-healthy − required hold) slack
  // seen at any admission; negative means a candidate was re-admitted
  // before its WTR/WTB hold-off lapsed.
  static constexpr std::int64_t kNoAdmission =
      std::numeric_limits<std::int64_t>::max();
  std::int64_t min_readmit_slack_slots_ = kNoAdmission;

  static constexpr std::size_t kMaxMttrSamples = 4096;
  std::vector<double> mttr_samples_;
};

}  // namespace wrt::wrtring
