#include "wrtring/recovery_fsm.hpp"

#include <algorithm>

#include "telemetry/metrics.hpp"
#include "wrtring/engine.hpp"

namespace wrt::wrtring {

RecoveryFsm::Decision RecoveryFsm::transition(RecoveryState state,
                                              RecoveryRequest request,
                                              const RecoveryTuning& tuning,
                                              bool guard_active) noexcept {
  using S = RecoveryState;
  using R = RecoveryRequest;
  using A = RecoveryAction;
  const bool guarded = tuning.guard_slots > 0;

  switch (request) {
    case R::kSignalFail:
      // A fresh failure indication.  Inside the guard window it is a stale
      // echo of the event just survived; during an active recovery it is a
      // duplicate of the request already in flight.  A forced switch does
      // not shadow real failures elsewhere in the ring.
      if (guard_active) return {state, A::kSuppress};
      if (state == S::kProtection) return {state, A::kSuppress};
      if (state == S::kIdle || state == S::kPending) {
        return {S::kProtection, A::kStartRecovery};
      }
      return {state, A::kStartRecovery};  // kForcedSwitch: handle normally
    case R::kGracefulLeave:
      // Voluntary exits are planned churn, never suppressed; the guard
      // window protects against stale failure claims, not intent.
      if (state == S::kForcedSwitch) return {state, A::kNone};
      return {S::kProtection, A::kNone};
    case R::kRecoveryComplete:
      if (state == S::kProtection) {
        return {guarded ? S::kPending : S::kIdle,
                guarded ? A::kStartGuard : A::kNone};
      }
      // Completion under a forced switch keeps the FS state; elsewhere it
      // is unsolicited bookkeeping.
      if (state == S::kForcedSwitch) {
        return {state, guarded ? A::kStartGuard : A::kNone};
      }
      return {state, A::kNone};
    case R::kRecDeadline:
      // Only an active recovery has a deadline to overrun.
      if (state == S::kProtection || state == S::kForcedSwitch) {
        return {state, A::kStartRebuild};
      }
      return {state, A::kNone};
    case R::kRingUnrepairable:
      // The engine reports a hard structural fact; re-form regardless of
      // where the FSM thinks it is.
      if (state == S::kForcedSwitch) return {state, A::kStartRebuild};
      return {S::kProtection, A::kStartRebuild};
    case R::kRebuildComplete:
      if (state == S::kProtection || state == S::kPending) {
        return {guarded ? S::kPending : S::kIdle,
                guarded ? A::kStartGuard : A::kNone};
      }
      if (state == S::kForcedSwitch) {
        return {state, guarded ? A::kStartGuard : A::kNone};
      }
      return {state, A::kNone};
    case R::kForcedSwitch:
      if (state == S::kForcedSwitch) return {state, A::kSuppress};
      return {S::kForcedSwitch, A::kNone};
    case R::kClearForced:
      if (state != S::kForcedSwitch) return {state, A::kNone};
      if (tuning.wtb_slots > 0) return {S::kPending, A::kArmWtb};
      return {guard_active ? S::kPending : S::kIdle, A::kQueueRejoin};
    case R::kWtrExpire:
    case R::kWtbExpire:
      // Hold-offs are per-candidate and may lapse in any state; admission
      // is always safe (the rejoin goes through the normal RAP handshake).
      return {state, A::kQueueRejoin};
    case R::kGuardExpire:
      if (state == S::kPending) return {S::kIdle, A::kNone};
      return {state, A::kNone};
  }
  return {state, A::kNone};
}

void RecoveryFsm::enter(RecoveryState next, Tick now) {
  (void)now;
  if (next == state_) return;
  state_ = next;
  if (engine_ != nullptr) {
    WRT_COUNT(engine_->telemetry_, kRecoveryFsmTransitions);
  }
}

void RecoveryFsm::open_guard(Tick now) {
  if (tuning_.guard_slots <= 0) return;
  guard_until_ = now + slots_to_ticks(tuning_.guard_slots);
}

void RecoveryFsm::record_mttr(double mttr_slots) {
  if (mttr_slots < 0.0) return;
  if (mttr_samples_.size() < kMaxMttrSamples) {
    mttr_samples_.push_back(mttr_slots);
  }
  if (engine_ != nullptr) {
    WRT_OBSERVE(engine_->telemetry_, kRecoveryMttrSlots, mttr_slots);
  }
}

bool RecoveryFsm::on_signal_fail(NodeId detector, NodeId accused, Tick now) {
  const Decision d =
      transition(state_, RecoveryRequest::kSignalFail, tuning_,
                 guard_active(now));
  if (d.action == RecoveryAction::kSuppress) {
    ++stale_rec_suppressed_;
    if (engine_ != nullptr) {
      WRT_COUNT(engine_->telemetry_, kStaleRecSuppressed);
    }
    if (accused == last_failed_ && last_failed_ != kInvalidNode) {
      ++duplicate_requests_dropped_;
    }
    enter(d.next, now);
    return false;
  }
  if (guard_active(now)) accepted_sf_during_guard_ = true;  // auditor trap
  last_failed_ = accused;
  enter(d.next, now);
  // wrt-lint-allow(recovery-side-effect): the FSM IS the decision funnel
  if (engine_ != nullptr) engine_->start_recovery(detector);
  return true;
}

void RecoveryFsm::on_graceful_leave(NodeId leaver, Tick now) {
  const Decision d = transition(state_, RecoveryRequest::kGracefulLeave,
                                tuning_, guard_active(now));
  last_failed_ = leaver;
  enter(d.next, now);
}

void RecoveryFsm::on_recovery_complete(Tick now, double mttr_slots) {
  const Decision d = transition(state_, RecoveryRequest::kRecoveryComplete,
                                tuning_, guard_active(now));
  record_mttr(mttr_slots);
  last_failed_ = kInvalidNode;
  if (d.action == RecoveryAction::kStartGuard) open_guard(now);
  enter(d.next, now);
}

void RecoveryFsm::on_rec_deadline(Tick now) {
  const Decision d = transition(state_, RecoveryRequest::kRecDeadline,
                                tuning_, guard_active(now));
  enter(d.next, now);
  if (d.action == RecoveryAction::kStartRebuild && engine_ != nullptr) {
    // wrt-lint-allow(recovery-side-effect): FSM-sanctioned rebuild dispatch
    engine_->start_rebuild();
  }
}

void RecoveryFsm::on_ring_unrepairable(Tick now) {
  const Decision d = transition(state_, RecoveryRequest::kRingUnrepairable,
                                tuning_, guard_active(now));
  enter(d.next, now);
  if (d.action == RecoveryAction::kStartRebuild && engine_ != nullptr) {
    // wrt-lint-allow(recovery-side-effect): FSM-sanctioned rebuild dispatch
    engine_->start_rebuild();
  }
}

void RecoveryFsm::on_rebuild_complete(Tick now, double mttr_slots) {
  const Decision d = transition(state_, RecoveryRequest::kRebuildComplete,
                                tuning_, guard_active(now));
  record_mttr(mttr_slots);
  last_failed_ = kInvalidNode;
  if (d.action == RecoveryAction::kStartGuard) open_guard(now);
  enter(d.next, now);
}

void RecoveryFsm::on_stale_rec_cancelled(Tick now) {
  ++stale_rec_suppressed_;
  if (engine_ != nullptr) {
    WRT_COUNT(engine_->telemetry_, kStaleRecSuppressed);
  }
  last_failed_ = kInvalidNode;
  // The cancellation ends the protection episode the same way a completion
  // does: guard against the next echo.
  open_guard(now);
}

RecoveryFsm::Admit RecoveryFsm::on_station_cut(NodeId node, Quota quota,
                                               NodeId anchor,
                                               std::uint32_t k1, bool forced,
                                               Tick now) {
  if (!forced && tuning_.wtr_slots <= 0 && !tuning_.revertive) {
    return Admit::kNow;  // legacy immediate-rejoin path, bit-identical
  }
  if (tracks_rejoin(node)) return Admit::kHeld;  // already waiting
  RejoinCandidate candidate;
  candidate.node = node;
  candidate.quota = quota;
  candidate.anchor = anchor;
  candidate.k1 = k1;
  candidate.forced = forced;
  candidate.healthy_since = kNeverTick;  // tick() starts the clock
  candidates_.push_back(candidate);
  if (!forced && tuning_.wtr_slots > 0) {
    ++wtr_holdoffs_;
    if (engine_ != nullptr) {
      WRT_COUNT(engine_->telemetry_, kWtrHoldoffs);
    }
  }
  (void)now;
  return Admit::kHeld;
}

bool RecoveryFsm::tracks_rejoin(NodeId node) const noexcept {
  for (const RejoinCandidate& c : candidates_) {
    if (c.node == node) return true;
  }
  return false;
}

bool RecoveryFsm::take_revertive_anchor(NodeId node, NodeId* anchor,
                                        std::uint32_t* k1) {
  if (!tuning_.revertive) return false;
  const auto it = revertive_memory_.find(node);
  if (it == revertive_memory_.end()) return false;
  *anchor = it->second.anchor;
  *k1 = it->second.k1;
  revertive_memory_.erase(node);
  return true;
}

void RecoveryFsm::record_revert_outcome(NodeId node, NodeId anchor,
                                        std::uint64_t membership_epoch) {
  last_revert_ = {node, anchor, membership_epoch};
}

bool RecoveryFsm::on_forced_switch(NodeId node, Tick now) {
  const Decision d = transition(state_, RecoveryRequest::kForcedSwitch,
                                tuning_, guard_active(now));
  if (d.action == RecoveryAction::kSuppress) {
    ++duplicate_requests_dropped_;
    return false;
  }
  forced_ = node;
  enter(d.next, now);
  return true;
}

void RecoveryFsm::on_clear_forced(NodeId node, Tick now) {
  if (state_ != RecoveryState::kForcedSwitch || node != forced_) return;
  const Decision d = transition(state_, RecoveryRequest::kClearForced,
                                tuning_, guard_active(now));
  forced_ = kInvalidNode;
  for (RejoinCandidate& c : candidates_) {
    if (c.node == node && c.forced) {
      c.cleared = true;
      c.healthy_since = kNeverTick;  // WTB clock starts at the next tick
    }
  }
  if (d.action == RecoveryAction::kQueueRejoin) {
    // No WTB hold-off configured: admit immediately.
    for (std::size_t i = 0; i < candidates_.size(); ++i) {
      if (candidates_[i].node == node) {
        admit(candidates_[i], now);
        candidates_.erase(candidates_.begin() +
                          static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
  }
  enter(d.next, now);
}

void RecoveryFsm::admit(RejoinCandidate& candidate, Tick now) {
  const std::int64_t healthy_slots =
      candidate.healthy_since == kNeverTick
          ? 0
          : ticks_to_slots(now - candidate.healthy_since);
  const std::int64_t hold =
      candidate.forced ? tuning_.wtb_slots : tuning_.wtr_slots;
  const std::int64_t slack = healthy_slots - hold;
  if (slack < min_readmit_slack_slots_) min_readmit_slack_slots_ = slack;
  if (tuning_.revertive) {
    revertive_memory_[candidate.node] = candidate;
  }
  if (engine_ != nullptr) {
    engine_->queue_rejoin(candidate.node, candidate.quota);
  }
}

void RecoveryFsm::tick(Tick now) {
  // Guard expiry: clears the window and the de-dup memory with it.
  if (guard_until_ != kNeverTick && now >= guard_until_) {
    guard_until_ = kNeverTick;
    const Decision d = transition(state_, RecoveryRequest::kGuardExpire,
                                  tuning_, false);
    last_failed_ = kInvalidNode;
    enter(d.next, now);
  }

  if (candidates_.empty()) return;
  for (std::size_t i = 0; i < candidates_.size();) {
    RejoinCandidate& c = candidates_[i];
    if (c.forced && !c.cleared) {
      ++i;  // held until the operator clears the switch
      continue;
    }
    const bool healthy =
        engine_ == nullptr || engine_->station_active(c.node);
    if (!healthy) {
      if (c.healthy_since != kNeverTick) {
        c.healthy_since = kNeverTick;  // flapped: restart the hold-off
        ++wtr_flap_restarts_;
      }
      ++i;
      continue;
    }
    if (c.healthy_since == kNeverTick) c.healthy_since = now;
    const std::int64_t hold =
        c.forced ? tuning_.wtb_slots : tuning_.wtr_slots;
    if (ticks_to_slots(now - c.healthy_since) >= hold) {
      const Decision d = transition(
          state_,
          c.forced ? RecoveryRequest::kWtbExpire : RecoveryRequest::kWtrExpire,
          tuning_, guard_active(now));
      admit(c, now);
      enter(d.next, now);
      candidates_.erase(candidates_.begin() +
                        static_cast<std::ptrdiff_t>(i));
      continue;
    }
    ++i;
  }
}

}  // namespace wrt::wrtring
