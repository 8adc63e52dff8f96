// Test-only engine-state corruption.
//
// The fault-injection tests for the invariant auditor need to produce
// states the protocol can never reach on its own — a stale position index,
// a duplicate SAT, an over-quota counter — and then assert that exactly
// the matching named check fires.  EngineTestHook is the single befriended
// back door for that: every method corrupts one specific structure and is
// named after the check it is meant to trip.
//
// This header must never be included from src/ production code; it exists
// for tests/check/ only.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/types.hpp"
#include "wrtring/engine.hpp"

namespace wrt::check {

struct EngineTestHook {
  /// Smallest NodeId that is not currently a ring member (ids are dense
  /// small integers in every test topology).
  [[nodiscard]] static NodeId non_member(const wrtring::Engine& engine) {
    NodeId candidate = 0;
    while (engine.ring_.contains(candidate)) ++candidate;
    return candidate;
  }

  // --- position-bijection -------------------------------------------------
  /// Drops a member from the NodeId -> position index.
  static void desync_position_index(wrtring::Engine& engine, NodeId node) {
    engine.position_index_[node] = -1;
  }

  // --- ring-lockstep ------------------------------------------------------
  /// Swaps two adjacent station slots without touching the ring order.
  /// Mirrors the old Station-object swap: identity, quotas, Send-algorithm
  /// counters and queues move; the control-plane timer columns stay put.
  static void swap_adjacent_stations(wrtring::Engine& engine,
                                     std::size_t position) {
    wrtring::SlotKernel& k = engine.kernel_;
    const std::size_t a = position;
    const std::size_t b = position + 1;
    std::swap(k.ids_[a], k.ids_[b]);
    std::swap(k.quota_[a], k.quota_[b]);
    std::swap(k.k1_assured_[a], k.k1_assured_[b]);
    std::swap(k.rt_pck_[a], k.rt_pck_[b]);
    std::swap(k.nrt_pck_[a], k.nrt_pck_[b]);
    std::swap(k.assured_sent_[a], k.assured_sent_[b]);
    std::swap(k.drops_[a], k.drops_[b]);
    for (auto& column : k.queues_) std::swap(column[a], column[b]);
    // Send state moved behind the mutators' backs: keep the eligibility
    // bitmap coherent for the engine's fast injection scan.
    k.refresh_eligible(a);
    k.refresh_eligible(b);
  }

  /// Gives the SAT arrival ring's count column one entry more than the
  /// ring has stations, as a membership path that skipped the other
  /// columns would.
  static void desync_arrival_count(wrtring::Engine& engine) {
    engine.kernel_.arrival_count_.push_back(0);
  }

  /// Re-lays the SAT arrival rows at a stride one column short of the
  /// ring: the last position of each row would alias the first of the next.
  static void narrow_arrival_stride(wrtring::Engine& engine) {
    wrtring::SlotKernel& k = engine.kernel_;
    k.arrival_stride_ = k.size() - 1;
    k.arrival_ticks_.resize(wrtring::SlotKernel::kArrivalSlots *
                            k.arrival_stride_);
  }

  // --- single-sat ---------------------------------------------------------
  /// Puts the (held) SAT at a station that is not a ring member.
  static void corrupt_sat_location(wrtring::Engine& engine) {
    engine.sat_state_ = wrtring::SatState::kHeld;
    engine.sat_location_ = non_member(engine);
  }

  /// Leaves the SAT in transit with an arrival tick already elapsed.
  static void sat_arrival_in_past(wrtring::Engine& engine) {
    engine.sat_state_ = wrtring::SatState::kInTransit;
    engine.sat_location_ = engine.ring_.station_at(0);
    engine.sat_arrival_tick_ = engine.now_ - slots_to_ticks(1);
  }

  // --- rap-mutex ----------------------------------------------------------
  /// Sets the RAP owner flag to a station that is not in the ring (the
  /// dangling-owner state a departed round owner would leave behind).
  static void dangling_rap_owner(wrtring::Engine& engine) {
    engine.sat_.rap_owner = non_member(engine);
  }

  /// Fakes a RAP in progress at one member while the SAT is held at
  /// another — two stations believing they hold the access period.
  static void phantom_rap(wrtring::Engine& engine) {
    const NodeId ingress = engine.ring_.station_at(0);
    const NodeId elsewhere = engine.ring_.station_at(1);
    engine.sat_state_ = wrtring::SatState::kHeld;
    engine.sat_location_ = elsewhere;
    engine.sat_.is_rec = false;
    engine.sat_.rap_owner = ingress;
    engine.rap_ingress_ = ingress;
    engine.rap_end_ = engine.now_ + slots_to_ticks(100);
  }

  // --- quota-conservation -------------------------------------------------
  /// Bumps a station's RT_PCK counter past its l quota.
  static void force_over_quota(wrtring::Engine& engine, NodeId node) {
    const auto position =
        static_cast<std::size_t>(engine.station_position(node));
    engine.kernel_.rt_pck_[position] = engine.kernel_.quota_[position].l + 1;
    engine.kernel_.refresh_eligible(position);
  }

  // --- link-pipeline ------------------------------------------------------
  /// Puts a phantom frame on link `position`: an occupied column with no
  /// pending terminal event, outside the engine's in-flight count.
  static void phantom_link_frame(wrtring::Engine& engine,
                                 std::size_t position) {
    wrtring::SlotKernel& k = engine.kernel_;
    (void)k.occupy(k.link_col(position), traffic::Packet{}, engine.now_);
  }

  /// Plans the rotation calendar into a power of two of buckets below
  /// R + 3, so two flight ends in one bucket would alias.
  static void alias_calendar(wrtring::Engine& engine) {
    engine.calendar_.resize(std::bit_floor(engine.ring_.size() + 2));
    engine.calendar_mask_ = engine.calendar_.size() - 1;
    engine.calendar_stale_ = false;
  }

  /// Flips link `position`'s bit in the busy-link bitmap and leaves its
  /// column's tag alone: the per-hop visit would skip a frame in flight or
  /// visit a free column.
  static void desync_link_busy(wrtring::Engine& engine,
                               std::size_t position) {
    wrtring::SlotKernel& k = engine.kernel_;
    const std::size_t c = k.link_col(position);
    k.link_busy_[c >> 6] ^= std::uint64_t{1} << (c & 63);
  }

  // --- frame-conservation -------------------------------------------------
  /// Counts a transmission no delivery, loss, purge or flight accounts for.
  static void leak_frame(wrtring::Engine& engine) {
    ++engine.stats_.data_transmissions;
  }

  // --- theorem1-oracle / theorem2-oracle ----------------------------------
  /// Replaces a station's SAT arrival history wholesale (ticks, oldest
  /// first) so the analytic oracles can be fed crafted spans.  The ring
  /// keeps the newest SlotKernel::kArrivalSlots of them.
  static void forge_sat_history(wrtring::Engine& engine, NodeId node,
                                const std::vector<Tick>& arrivals) {
    const auto position =
        static_cast<std::size_t>(engine.station_position(node));
    wrtring::SlotKernel& k = engine.kernel_;
    k.arrival_head_[position] = 0;
    k.arrival_count_[position] = 0;
    for (const Tick arrival : arrivals) k.record_arrival(position, arrival);
  }

  // --- RecoveryFsm --------------------------------------------------------
  /// Backdates a member's last SAT arrival so its SAT_TIMER reads as
  /// expired `slots` slots ago — the stale-SAT_REC stimulus the guard
  /// window must suppress (and, without a guard, must spuriously act on).
  static void age_sat_timer(wrtring::Engine& engine, NodeId node,
                            std::int64_t slots) {
    const auto position =
        static_cast<std::size_t>(engine.station_position(node));
    engine.kernel_.last_sat_arrival_[position] -= slots_to_ticks(slots);
    engine.sat_timer_guard_valid_ = false;
  }

  /// Opens the FSM's guard window directly (as a completed recovery would).
  static void open_guard(wrtring::Engine& engine) {
    engine.fsm_.open_guard(engine.now_);
  }

  // --- guard_no_stale_rec -------------------------------------------------
  /// Latches the trap the transition table makes unreachable: a recovery
  /// accepted while the guard window was open.
  static void force_guard_violation(wrtring::Engine& engine) {
    engine.fsm_.accepted_sf_during_guard_ = true;
  }

  // --- wtr_no_flap_readmit ------------------------------------------------
  /// Records an admission that undercut its hold-off by `slots` slots.
  static void force_wtr_violation(wrtring::Engine& engine,
                                  std::int64_t slots) {
    engine.fsm_.min_readmit_slack_slots_ = -slots;
  }

  // --- revertive_position_restored ----------------------------------------
  /// Records a revertive insertion whose anchor the ring does not
  /// corroborate (the engine never writes such an outcome itself).
  static void force_revertive_mismatch(wrtring::Engine& engine) {
    engine.fsm_.tuning_.revertive = true;
    engine.fsm_.last_revert_ = {engine.ring_.station_at(0),
                                engine.ring_.station_at(1),
                                engine.membership_epoch_};
  }
};

}  // namespace wrt::check
