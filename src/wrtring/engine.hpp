// WRT-Ring protocol engine.
//
// A slot-synchronous simulation of the full protocol of Section 2:
//
//  * Data plane — a slotted virtual ring with destination release.  Each
//    slot, every station forwards the frame in transit on its incoming link
//    or, if that link slot is empty, injects a local packet according to the
//    Send algorithm (Section 2.2).  Per-hop transmissions are CDMA-coded to
//    the downstream neighbour, so all N links are active concurrently —
//    Figure 1's spatial reuse.
//  * Control plane — the SAT signal circulates with the traffic direction,
//    held at not-satisfied stations (SAT algorithm), carrying the RAP mutex
//    flag (Section 2.4.1).
//  * Topology changes — RAP-based join (NEXT_FREE / JOIN_REQ / JOIN_ACK),
//    graceful leave, SAT-loss detection via per-station SAT_TIMER, SAT_REC
//    cut-out recovery, and full ring re-formation as last resort
//    (Sections 2.4 and 2.5).
//
// The engine steps in MAC slots; one Engine instance is single-threaded and
// owns all protocol state, so parallel replications each build their own.
//
// Storage layout: the per-slot hot path is position-indexed,
// structure-of-arrays.  All per-station state — quota/split counters,
// per-class backlog queues, SAT timers and rotation history — and the
// one-frame link columns live in `kernel_` (wrtring::SlotKernel), one dense
// column per field, indexed by ring position: entry p always describes the
// station at ring_.station_at(p).  The data plane is a rotation calendar
// over the link columns (see data_plane_step), and check_sat_timers() is a
// contiguous pass over the timer column, with no associative lookups and
// no per-station object hops.  Every membership path (init, join, SAT_REC
// cut-out, graceful leave, ring re-formation) mutates the kernel columns
// and the ring order together and then refreshes `position_index_`
// (NodeId -> position, -1 when not a member), which serves the by-NodeId
// accessors (station_quota, set_station_split, queue_depth, ...), the only
// per-station reads and writes outside the engine.  `membership_epoch_`
// increments on each such change.  Traffic reaches its station's queues
// through `position_index_` (one vector index), and the per-position
// liveness/reachability caches — with the calendar's distance-to-next-
// barrier table derived from them — are keyed by (topology version,
// membership epoch, stall epoch), so steady-state stepping does no
// associative lookup.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cdma/channel.hpp"
#include "cdma/code_assignment.hpp"
#include "analysis/bounds.hpp"
#include "phy/topology.hpp"
#include "ring/frame.hpp"
#include "ring/virtual_ring.hpp"
#include "sim/stats.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/metrics.hpp"
#include "traffic/source_set.hpp"
#include "traffic/trace.hpp"
#include "traffic/traffic.hpp"
#include "util/flat_map.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/thread_safety.hpp"
#include "wrtring/config.hpp"
#include "wrtring/recovery_fsm.hpp"
#include "wrtring/soa_kernel.hpp"

namespace wrt::check {
class InvariantAuditor;   // runtime invariant auditor (src/check/)
struct EngineTestHook;    // test-only state corruption (src/check/)
}  // namespace wrt::check

namespace wrt::wrtring {

/// Aggregate protocol statistics exposed to harnesses.
struct EngineStats {
  sim::Moments sat_rotation_slots;       ///< per-arrival rotation samples
  sim::Moments sat_hold_slots;           ///< per-seizure SAT hold durations
  sim::Moments access_delay_slots;       ///< packet queue -> first tx
  sim::Moments rt_access_delay_slots;
  traffic::Sink sink;                    ///< delivery accounting
  std::uint64_t sat_hops = 0;            ///< SAT link traversals
  std::uint64_t sat_rounds = 0;          ///< completed rotations (station 0)
  std::uint64_t data_transmissions = 0;  ///< local injections
  std::uint64_t transit_forwards = 0;
  /// Frames lost on a hop: arriving at a silent (dead or stalled) station,
  /// forwarded onto an unreachable hop, or dropped by the channel.
  std::uint64_t frames_lost_link = 0;
  /// In-flight frames discarded when a re-formation (join update phase,
  /// cut-out, ring rebuild) resets the data plane — kept apart from
  /// frames_lost_link so link-quality metrics aren't inflated by
  /// membership churn.
  std::uint64_t frames_lost_rebuild = 0;
  /// In-flight frames discarded by a *successful join's* update phase
  /// (Section 2.4.1 resets the data plane when the ring gains a member).
  /// Kept apart from frames_lost_rebuild so recovery-casualty metrics
  /// aren't polluted by planned, healthy growth.
  std::uint64_t frames_lost_churn = 0;
  std::uint64_t frames_dropped_stale = 0;///< destination left the ring
  std::uint64_t control_messages_lost = 0;  ///< NEXT_FREE/JOIN_REQ/JOIN_ACK
  std::uint64_t join_retries = 0;        ///< backoffs after a lost handshake
  std::uint64_t joins_abandoned = 0;     ///< gave up after max attempts
  std::uint64_t sat_losses_detected = 0;
  std::uint64_t sat_recoveries = 0;      ///< successful SAT_REC cut-outs
  std::uint64_t cut_outs = 0;            ///< stations cut by a SAT_REC
  /// Cut-outs whose victim was demonstrably alive and reachable at the cut
  /// (a stale SAT_REC claimed it) — the failure mode the RecoveryFsm guard
  /// window exists to eliminate; the chaos gate asserts 0 under guard.
  std::uint64_t spurious_cutouts = 0;
  std::uint64_t ring_rebuilds = 0;
  std::uint64_t raps_started = 0;
  std::uint64_t joins_completed = 0;
  std::uint64_t joins_rejected = 0;
  std::uint64_t leaves_completed = 0;
  sim::Moments sat_loss_detection_slots;  ///< actual loss -> detection
  sim::Moments recovery_total_slots;      ///< actual loss -> SAT restored
  sim::Moments join_latency_slots;        ///< request -> in ring
  std::uint64_t cdma_collisions = 0;
  /// Fidelity mode: headers that failed the encode/decode round trip
  /// (must stay 0; a CRC/codec bug would show here).
  std::uint64_t header_decode_failures = 0;
  /// Time-weighted fraction of ring links carrying a frame (spatial-reuse
  /// utilisation, 0..1); sample with ring_utilization().
  sim::TimeWeightedStats busy_links;
};

/// Where the SAT (or SAT_REC) currently is.
enum class SatState : std::uint8_t {
  kInTransit,  ///< travelling a link; arrives at `arrival_tick`
  kHeld,       ///< seized by a not-satisfied station (or a station in RAP)
  kLost,       ///< dropped (injected fault or broken link); timers running
  kRebuilding, ///< ring re-formation downtime in progress
};

/// Shard-confined: one engine is one federation shard, driven by exactly
/// one thread.  Independent engines on independent threads are safe (the
/// process-wide MetricRegistry they all flush into is atomic/lock-guarded;
/// see tests/concurrency/shard_smoke_test.cpp), but every entry point
/// below — stepping, membership (request_join / request_leave /
/// kill_station), and the fault plane (stall_station, degrade_link,
/// drop_control_once) — must be called from the engine's owning thread.
/// Cross-shard interaction goes through value-type gateway messages, never
/// by poking another shard's engine (lint rule `cross-shard-handle`).
class WRT_SHARD_CONFINED Engine final {
 public:
  /// `topology` must outlive the engine; the engine mutates liveness when
  /// stations are killed and reads reachability every slot.
  Engine(phy::Topology* topology, Config config, std::uint64_t seed);

  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Builds the virtual ring, assigns CDMA codes, initialises stations and
  /// launches the SAT.  Must be called exactly once before step().
  [[nodiscard]] util::Status init();

  // -- traffic ------------------------------------------------------------

  /// Attaches a stochastic source; packets arrive at spec.src's queues.
  void add_source(const traffic::FlowSpec& spec) { sources_.add_source(spec); }

  /// Attaches an always-backlogged source at spec.src (keeps the class
  /// queue topped up to min(backlog, queue_capacity) packets every slot).
  void add_saturated_source(const traffic::FlowSpec& spec,
                            std::size_t backlog = 4) {
    sources_.add_saturated_source(spec, backlog);
  }

  /// Replays a recorded/synthetic trace (video GOPs, voice spurts, ...) as
  /// one flow from `src` to `dst`.
  void add_trace_source(traffic::Trace trace, FlowId flow, NodeId src,
                        NodeId dst, std::int64_t deadline_slots = 0) {
    sources_.add_trace_source(std::move(trace), flow, src, dst,
                              deadline_slots);
  }

  /// Direct injection for tests; returns false if the queue is full or the
  /// station is not in the ring.
  // wrt-lint-allow(by-value-frame-param): deliberate sink, moved into queue
  bool inject_packet(traffic::Packet packet) { return enqueue(packet); }

  /// Depth of `node`'s class queue; nullopt when `node` is not a member.
  [[nodiscard]] std::optional<std::size_t> queue_depth(
      NodeId node, TrafficClass cls) const noexcept;

  /// Packets `node`'s class queues refused because they were full.  Throws
  /// std::out_of_range when `node` is not in the ring.
  [[nodiscard]] std::uint64_t queue_drops(NodeId node) const;

  // -- execution ----------------------------------------------------------

  /// Advances one MAC slot.
  void step();

  /// Advances `n` slots.
  void run_slots(std::int64_t n);

  [[nodiscard]] Tick now() const noexcept { return now_; }
  [[nodiscard]] std::int64_t now_slots() const noexcept {
    return ticks_to_slots(now_);
  }

  // -- topology change & fault injection -----------------------------------

  /// Registers `node` (already placed in the topology) as wanting to join;
  /// it starts listening for NEXT_FREE broadcasts (Section 2.4.1).
  void request_join(NodeId node, Quota quota);

  /// Graceful leave (Section 2.4.2): the station announces its exit via its
  /// successor, which runs the SAT_REC cut-out.
  [[nodiscard]] util::Status request_leave(NodeId node);

  /// Kills a station without notice (battery out): it stops forwarding
  /// everything; detection happens via SAT_TIMER (Section 2.5).
  void kill_station(NodeId node);

  /// Wedges a station (hung process, stuck radio): unlike kill_station it
  /// stays alive in the topology but forwards neither frames nor the SAT,
  /// so the ring sees the same symptoms as a crash — until resume_station.
  void stall_station(NodeId node);

  /// Un-wedges a stalled station.  If the ring cut it out in the meantime
  /// and auto_rejoin is on, it re-enters through the normal join procedure.
  void resume_station(NodeId node);
  [[nodiscard]] bool station_stalled(NodeId node) const noexcept {
    return node < stalled_.size() && stalled_[node] != 0;
  }

  /// Drops the SAT the next time it crosses a link (transient control loss).
  void drop_sat_once() noexcept { drop_sat_pending_ = true; }

  /// Join-handshake messages (Section 2.4.1) that the fault plane can kill.
  enum class ControlMsg : std::uint8_t {
    kNextFree = 0,
    kJoinReq = 1,
    kJoinAck = 2,
  };

  /// Drops the next transmission of the given handshake message (one-shot,
  /// like drop_sat_once).  The affected joiner backs off and retries.
  void drop_control_once(ControlMsg which) noexcept {
    drop_control_pending_[static_cast<std::size_t>(which)] = true;
  }

  /// Overrides the Gilbert–Elliott loss process on the (undirected) link
  /// a <-> b for every purpose — data frames, SAT hops, and control
  /// messages all degrade together, as a fading radio link would.
  void degrade_link(NodeId a, NodeId b, const fault::GeParams& params) {
    link_loss_.degrade_pair(a, b, params);
  }

  /// Removes a degrade_link override; the link reverts to channel defaults.
  void heal_link(NodeId a, NodeId b) { link_loss_.heal_pair(a, b); }

  // -- operator-forced protection switching (RecoveryFsm, DESIGN.md §14) ----

  /// Forces `node` out of the ring through the graceful-leave machinery and
  /// holds it out until clear_force_switch; re-admission then waits out the
  /// WTB hold-off (Config::wtb_slots).  Fails on a duplicate force or when
  /// the leave cannot start (ring too small, another leave pending).
  [[nodiscard]] util::Status force_switch(NodeId node);

  /// Releases an operator-forced switch; `node` becomes eligible for
  /// re-admission once it has stayed healthy for wtb_slots.
  void clear_force_switch(NodeId node);

  /// The recovery state machine (observers: state, counters, MTTR samples).
  [[nodiscard]] const RecoveryFsm& recovery_fsm() const noexcept {
    return fsm_;
  }

  // -- observers ------------------------------------------------------------

  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const ring::VirtualRing& virtual_ring() const noexcept {
    return ring_;
  }

  /// Time-averaged fraction of ring links busy with a frame since start —
  /// the spatial-reuse utilisation the capacity experiments report.
  /// (Non-const: flushes the running time-weighted segment.)
  [[nodiscard]] double ring_utilization() {
    return stats_.busy_links.time_average(now_);
  }
  [[nodiscard]] SatState sat_state() const noexcept { return sat_state_; }
  [[nodiscard]] bool in_rap() const noexcept { return rap_end_ > now_; }

  /// A member's quota (l, k); throws std::out_of_range when `node` is not
  /// in the ring.
  [[nodiscard]] Quota station_quota(NodeId node) const;

  /// Updates a station's quota at runtime (quota renegotiation after
  /// admissions, releases, or a cut-out's quota being re-assigned,
  /// Section 2.5).  The new quota takes effect at the next SAT release.
  void set_station_quota(NodeId node, Quota quota);

  /// Per-station Diffserv split (Section 2.3): reserves `k1` of the
  /// station's k quota for Assured traffic.  Independent of the global
  /// Config::k1_assured default and of every other station.
  void set_station_split(NodeId node, std::uint32_t k1_assured);
  /// The k1 share of a member's k quota reserved for Assured traffic;
  /// throws std::out_of_range when `node` is not in the ring.
  [[nodiscard]] std::uint32_t station_split(NodeId node) const;

  /// Current analytical parameters (S, T_rap, quotas) matching this ring —
  /// feed these to analysis::sat_time_bound & friends.
  [[nodiscard]] analysis::RingParams ring_params() const;

  /// A copy of the station's last SlotKernel::kArrivalSlots SAT arrival
  /// ticks, oldest first (empty for a non-member; a re-formation clears
  /// every history); used by the Theorem-2 property tests.
  [[nodiscard]] std::vector<Tick> sat_arrival_history(NodeId node) const;

  /// Admission check used by the join handshake and the gateway: would the
  /// ring extended by `extra` still satisfy every admitted deadline?
  /// (Conservative: checks the Theorem-1 bound against `max_sat_time_goal_`.)
  [[nodiscard]] bool admission_allows(Quota extra) const;

  /// Sets the delay goal (slots) used by admission control; 0 disables
  /// admission rejection.
  void set_max_sat_time_goal(std::int64_t slots) noexcept {
    max_sat_time_goal_ = slots;
  }

  /// Membership-change notification: invoked with (node, joined) after a
  /// station enters the ring (join, rebuild recruit) or leaves it (cut-out,
  /// graceful leave, rebuild exclusion).  Admission controllers subscribe
  /// to keep session registries and quota allocations in sync with the
  /// ring.  Pass nullptr to unsubscribe.
  using MembershipCallback = std::function<void(NodeId, bool joined)>;
  void set_membership_callback(MembershipCallback callback) {
    membership_callback_ = std::move(callback);
  }

  /// Delivery observation hook: invoked after every frame absorption with
  /// the absorbed packet, the absorbing station and the current tick.  The
  /// federation layer uses it to tap gateway-bound crossings without
  /// polling per-station sinks.  Unset (the default) it costs one branch
  /// per delivery.  Pure observation: the callback must not re-enter the
  /// engine, and in a federation it must touch only its own shard's state.
  using DeliveryTap = std::function<void(const traffic::Packet&, NodeId, Tick)>;
  void set_delivery_tap(DeliveryTap tap) { delivery_tap_ = std::move(tap); }

  [[nodiscard]] const cdma::CodeMap& codes() const noexcept { return codes_; }

  /// Attaches a telemetry event journal (nullptr detaches); it is the
  /// engine's only protocol event record.  While attached the engine
  /// records SAT residency, transmissions, deliveries, membership churn and
  /// every recovery step (SAT launch and loss, SAT_REC, cut-out,
  /// re-formation, RAP starts, refused joins) into per-station rings, and —
  /// when `queue_sample_every_slots` > 0 — samples every station's queue
  /// depth on that cadence.  Attach before init() to see the first SAT
  /// launch.  Observation only: attaching a journal never changes protocol
  /// behaviour, and with no journal attached the per-event cost is one
  /// pointer test.  The journal must outlive the engine or be detached.
  void set_journal(telemetry::Journal* journal,
                   std::int64_t queue_sample_every_slots = 0) noexcept {
    journal_ = journal;
    journal_queue_sample_slots_ = queue_sample_every_slots;
  }

  /// Fills `meta` (S, T_rap, per-station quotas) for offline bound
  /// evaluation; Journal::set_meta + save make a self-contained artifact.
  [[nodiscard]] telemetry::RingMeta journal_meta() const;

  /// Frames currently travelling ring links.  Closes the accounting
  /// identity the chaos soak asserts:
  /// data_transmissions == delivered + frames_lost_link +
  /// frames_lost_rebuild + frames_lost_churn + frames_dropped_stale +
  /// frames_in_flight().
  [[nodiscard]] std::uint64_t frames_in_flight() const noexcept;

  /// Runs the ten named structural checks (src/wrtring/invariants.cpp, the
  /// same table check::InvariantAuditor runs) and returns the first
  /// violation as a protocol_violation "<check name>: <detail>".  Tests,
  /// the monkey harness and the chaos soak call this between steps.
  [[nodiscard]] util::Status check_invariants() const;

  /// External audit hook (see check::InvariantAuditor).  Invoked with an
  /// event tag after every membership event (init, join, cut-out, graceful
  /// leave, ring re-formation) and — in audit builds only (WRT_AUDIT_LEVEL,
  /// util/audit.hpp) — every `every_k_slots` slots.  In release builds the
  /// periodic call compiles out entirely; the membership-event call costs
  /// one branch on a rare path.  Pass nullptr to detach.
  using AuditHook = std::function<void(const char* event)>;
  void set_audit_hook(AuditHook hook, std::int64_t every_k_slots = 0) {
    audit_hook_ = std::move(hook);
    audit_every_slots_ = every_k_slots;
  }

 private:
  friend class ::wrt::check::InvariantAuditor;
  friend struct ::wrt::check::EngineTestHook;
  friend class RecoveryFsm;  // sole caller of start_recovery/start_rebuild

  struct SatSignal {
    bool is_rec = false;          ///< SAT_REC rather than plain SAT
    bool graceful_leave = false;  ///< SAT_REC triggered by a voluntary leave
    NodeId rec_origin = kInvalidNode;   ///< station that generated SAT_REC
    NodeId rec_failed = kInvalidNode;   ///< station being cut out
    NodeId rap_owner = kInvalidNode;    ///< RAP mutex flag (Section 2.4.1)
  };

  /// One named structural invariant: `fn` appends one detail string per
  /// violation it finds.  kInvariantChecks (src/wrtring/invariants.cpp) is
  /// the one registry; check_invariants() and check::InvariantAuditor both
  /// walk it in order.
  struct InvariantCheck {
    const char* name;
    void (*fn)(const Engine&, std::vector<std::string>& out);
  };
  static const std::array<InvariantCheck, 10> kInvariantChecks;

  struct PendingJoin {
    Quota quota{1, 1};
    Tick requested_at = 0;
    // NEXT_FREE table: ingress -> its announced successor (Section 2.4.1).
    util::FlatMap<NodeId, NodeId> heard;
    NodeId chosen_ingress = kInvalidNode;
    bool table_complete = false;
    // Lossy-handshake retry state: `attempts` counts lost JOIN_REQ/ACK
    // exchanges; until `backoff_until` the joiner ignores NEXT_FREE.
    std::uint32_t attempts = 0;
    Tick backoff_until = 0;
  };

  // --- slot phases ---
  void poll_traffic();
  void data_plane_step();
  void sat_plane_step();
  void rap_step();
  void check_sat_timers();

  // --- data plane: the rotation calendar (see data_plane_step) ---
  /// How a frame's flight ends, in tie-break order: at one arrival a silent
  /// station swallows the frame before its destination can absorb it, the
  /// destination absorbs it before the hop limit purges it, and only a
  /// frame that survives all three is forwarded onto the outgoing hop.
  enum class FlightEnd : std::uint8_t {
    kSilent,       ///< arrives at a dead or stalled station: lost
    kDeliver,      ///< arrives at its destination: absorbed
    kStale,        ///< arrival R + 2 (hops > R + 1): destination gone
    kUnreachable,  ///< forwarded onto an unreachable hop: lost
  };
  /// Schedules the end of the flight of the frame on `column` (tag `tag`)
  /// whose next arrival is at position `arrive`, in `slot`, as its arrival
  /// number `age`; `dst_position` is -1 when the destination is no member.
  void schedule_flight_end(std::uint32_t column, std::uint32_t tag,
                           std::int64_t slot, std::size_t arrive,
                           std::int64_t age, std::int32_t dst_position);
  /// Re-derives the calendar from the frames in flight (after a change of
  /// the liveness/reachability key or a data-plane reset).
  void replan_calendar();

  // --- SAT handling ---
  void sat_arrive(NodeId at);
  void sat_release(NodeId from);
  void launch_sat(NodeId at);
  void start_recovery(NodeId detector);
  /// Closes the SAT_REC in progress at station `at` (Section 2.5): the
  /// leave or recovery counters and recovery-time sample, the journal
  /// records, the FSM's recovery-complete call, and the SAT_REC state reset.
  void finish_sat_rec(NodeId at);
  void start_rebuild();
  void finish_rebuild();

  // --- RAP / join ---
  [[nodiscard]] bool wants_rap(NodeId node) const;
  void begin_rap(NodeId ingress);
  void finish_rap();
  void complete_join(NodeId joiner, NodeId ingress);
  /// Files the auto_rejoin PendingJoin for a station just cut out, or (as
  /// the RecoveryFsm admission callback) one whose WTR/WTB hold-off lapsed;
  /// a no-op if it is already joining, back in the ring or not active.
  void queue_rejoin(NodeId node, Quota quota);

  // --- helpers ---
  void notify_audit(const char* event) {
    if (audit_hook_) audit_hook_(event);
  }
  /// Journal append guarded by attachment; one pointer test when detached.
  void journal_record(NodeId station, telemetry::JournalKind kind,
                      std::uint32_t arg = 0, std::uint64_t value = 0) {
    if (journal_ != nullptr) journal_->record(station, kind, now_, arg, value);
  }
  void maybe_sample_queues();
  void maybe_periodic_audit();
  /// Rebuilds the per-position liveness/reachability caches and the
  /// barrier table when their (topology version, membership epoch, stall
  /// epoch) key went stale, and marks the calendar for a replan.  The key
  /// check is inline; only a rebuild calls out.
  void refresh_hot_caches() {
    if (cache_topology_version_ != topology_->version() ||
        cache_membership_epoch_ != membership_epoch_ ||
        cache_stall_epoch_ != stall_epoch_) {
      rebuild_hot_caches();
    }
  }
  void rebuild_hot_caches();
  /// Which casualty counter a data-plane teardown charges its in-flight
  /// frames to: recovery paths (cut-out, ring re-formation) indict the
  /// failure machinery, a join's update phase is planned churn.
  enum class TeardownCause : std::uint8_t { kRecovery, kJoin };
  void drop_in_flight_frames(TeardownCause cause = TeardownCause::kRecovery);
  /// Alive in the topology and not wedged — the liveness test every plane
  /// applies (a stalled station is present but silent).
  [[nodiscard]] bool station_active(NodeId node) const noexcept {
    return topology_->alive(node) &&
           (node >= stalled_.size() || stalled_[node] == 0);
  }
  /// Consumes a one-shot drop_control_once flag.
  [[nodiscard]] bool take_control_drop(ControlMsg which) noexcept {
    bool& flag = drop_control_pending_[static_cast<std::size_t>(which)];
    const bool armed = flag;
    flag = false;
    return armed;
  }
  /// Lost JOIN_REQ/JOIN_ACK bookkeeping: bump the retry counter, enter
  /// exponential backoff, abandon cleanly past the attempt budget.
  void register_join_backoff(NodeId joiner);
  [[nodiscard]] std::int64_t effective_sat_timeout(NodeId node) const;
  [[nodiscard]] Quota quota_for_position(std::size_t position) const;
  void record_rotation(std::size_t position, Tick arrival);
  void assign_codes();
  void deliver(LinkFrame& frame, NodeId at);
  [[nodiscard]] bool data_allowed() const noexcept;

  // --- position-indexed membership maintenance ---
  /// Ring position of `node`, or -1 when it is not a member.
  [[nodiscard]] std::int32_t station_position(NodeId node) const noexcept;
  /// Ring position of member `node`; throws std::out_of_range naming
  /// `accessor` when it is not in the ring.
  [[nodiscard]] std::size_t member_position(NodeId node,
                                            const char* accessor) const;
  /// Rebuilds position_index_ from ring_ and bumps membership_epoch_.
  void rebuild_position_index();
  /// Re-sizes the link columns to the ring, empties them and marks the
  /// calendar for a replan.
  void reset_data_plane();
  /// Loss handles of the ring's hops for `purpose` (kData or kSat): entry p
  /// is the process of hop p -> p+1.  Re-resolved only when the membership
  /// epoch has moved since the last call.
  const std::vector<fault::LinkLossField::Handle>& hop_loss_handles(
      fault::LossPurpose purpose);
  /// Inserts `joiner` (with its station/control state) right after
  /// `ingress`, keeping kernel columns and ring order aligned.
  void insert_member(NodeId ingress, NodeId joiner, Quota quota);
  /// Removes the member at `position` from the ring and all kernel columns.
  void erase_member(std::size_t position);
  /// Queues `packet` at its source station; moves from it only on
  /// acceptance (false: not a member, or the class queue is full).
  bool enqueue(traffic::Packet& packet);
  /// Send-algorithm injection bookkeeping: pops the head packet of `cls` at
  /// position p and records its access delay, journal entry, per-class
  /// count and the drained station.
  traffic::Packet take_injection(std::size_t p, NodeId node, TrafficClass cls,
                                 std::uint64_t (&tx_by_class)[3]);

  phy::Topology* topology_;
  Config config_;
  std::uint64_t seed_;
  Tick now_ = 0;
  bool initialised_ = false;

  ring::VirtualRing ring_;
  cdma::CodeMap codes_;

  // Structure-of-arrays per-position storage (see the header comment):
  // station counters, class queues, SAT timers and link columns, one dense
  // column per field, all kept in lockstep with the ring order by the
  // membership paths.
  SlotKernel kernel_;
  std::vector<std::int32_t> position_index_;  ///< NodeId -> position, -1 out
  std::uint64_t membership_epoch_ = 1;

  // Per-position liveness and next-hop reachability, cached off the
  // topology so the data plane does not re-derive unit-disk geometry and
  // failed-link sets every slot.  Exact: keyed on (topology version,
  // membership epoch, stall epoch), all of which bump on every mutation
  // the cached predicates depend on.  next_barrier_[p] is the distance from
  // position p to the first position at or after it that is silent or has
  // an unreachable outgoing hop (kNoBarrier when there is none).
  static constexpr std::uint32_t kNoBarrier = ~std::uint32_t{0};
  std::vector<std::uint8_t> active_cache_;
  std::vector<std::uint8_t> link_ok_cache_;
  std::vector<std::uint32_t> next_barrier_;
  std::uint64_t cache_topology_version_ = ~std::uint64_t{0};
  std::uint64_t cache_membership_epoch_ = 0;
  std::uint64_t cache_stall_epoch_ = ~std::uint64_t{0};
  std::uint64_t stall_epoch_ = 0;  ///< bumped by stall/resume

  // Rotation calendar.  calendar_[slot & calendar_mask_] holds the
  // arrivals that end a flight in that slot; `column` is the frame's
  // physical link column, fixed for its whole flight under the rotation.
  // A flight ends at most R + 2 slots ahead, so the bucket count is a power
  // of two of at least R + 3 (fewer would alias two flight ends), and a
  // slot indexes it by mask.  A frame lost to a channel draw leaves its
  // entry behind: the tag no longer matches the column, so the entry is
  // skipped.
  struct DataEvent {
    std::uint32_t column;
    std::uint32_t position;  ///< arrival position (the visit order)
    std::uint32_t tag;
    FlightEnd end;
  };
  std::vector<std::vector<DataEvent>> calendar_;
  std::size_t calendar_mask_ = 0;  ///< calendar_.size() - 1
  std::uint64_t in_flight_ = 0;
  bool calendar_stale_ = true;  ///< replan before the next data-plane step

  // Traffic.  The data plane notes each transmitting station in sources_,
  // so poll_traffic() refills just those saturated bounds; a membership
  // change (poll_epoch_ lagging membership_epoch_) refills every bound.
  traffic::SourceSet sources_{seed_, 0xABCD1234u, config_.queue_capacity};
  std::uint64_t poll_epoch_ = 0;

  // SAT state.
  SatState sat_state_ = SatState::kLost;
  SatSignal sat_;
  NodeId sat_location_ = kInvalidNode;  ///< held-at or transit-destination
  Tick sat_arrival_tick_ = kNeverTick;
  Tick sat_hold_started_ = kNeverTick;  ///< seizure instant (kHeld only)
  Tick sat_lost_at_ = kNeverTick;       ///< ground-truth loss instant
  Tick rebuild_done_ = kNeverTick;
  Tick rec_deadline_ = kNeverTick;      ///< SAT_REC must return by this tick
  NodeId leave_pending_ = kInvalidNode; ///< graceful leave in progress
  NodeId rotation_anchor_ = kInvalidNode;  ///< station whose arrivals count rounds

  // RAP state.
  Tick rap_end_ = 0;
  Tick rap_ear_end_ = 0;
  NodeId rap_ingress_ = kInvalidNode;
  NodeId rap_accepted_joiner_ = kInvalidNode;

  // Joins.  Sorted by NodeId (deterministic NEXT_FREE scan order).
  util::FlatMap<NodeId, PendingJoin> pending_joins_;

  // Fault plane.  link_loss_ owns every loss draw (per purpose, per
  // directed link); stalled_ is indexed by NodeId and grown on demand.
  bool drop_sat_pending_ = false;
  bool drop_control_pending_[3] = {false, false, false};
  fault::LinkLossField link_loss_;
  std::vector<std::uint8_t> stalled_;
  // hop_loss_[purpose][p]: link_loss_'s handle for hop p -> p+1, data and
  // SAT only, so a per-frame draw indexes a vector instead of searching
  // the field's link map.  Degrade and heal restart a process in place, so
  // only a membership change (hop_loss_epoch_ lagging membership_epoch_)
  // re-resolves a table.
  std::vector<fault::LinkLossField::Handle> hop_loss_[2];
  std::uint64_t hop_loss_epoch_[2] = {0, 0};

  // Admission.
  std::int64_t max_sat_time_goal_ = 0;
  MembershipCallback membership_callback_;
  DeliveryTap delivery_tap_;

  // Correctness tooling (src/check/): membership events always notify an
  // attached hook; the per-slot cadence exists only in audit builds.
  AuditHook audit_hook_;
  std::int64_t audit_every_slots_ = 0;

  // Derived SAT timeout (Theorem 1 bound over the current ring), cached so
  // the per-slot timer scan does not recompute ring_params().  Invalidated
  // by every membership change and by quota renegotiation.
  mutable std::int64_t sat_timeout_cache_ = 0;
  mutable bool sat_timeout_dirty_ = true;

  // SAT-timer scan guard: the earliest expiry found by the last full
  // check_sat_timers() sweep.  last_sat_arrival only ever advances to now_
  // and the timeout is constant while the guard is valid, so no station can
  // expire before this tick and the O(R) sweep is skipped until it passes.
  // Invalidated whenever the effective timeout may change (membership
  // change, quota renegotiation).
  Tick sat_timer_guard_ = kNeverTick;
  bool sat_timer_guard_valid_ = false;

  // Recovery decision funnel (guard window, WTR/WTB hold-offs, revertive
  // re-insertion, request de-dup).  All-defaults tuning makes every call a
  // pass-through to the legacy actions — the digest-identity contract.
  RecoveryFsm fsm_;

  // CDMA fidelity channel (allocated only when config_.cdma_fidelity).
  std::unique_ptr<cdma::Channel<traffic::Packet>> channel_;

  EngineStats stats_;

  // Telemetry journal (opt-in; see set_journal).
  telemetry::Journal* journal_ = nullptr;
  std::int64_t journal_queue_sample_slots_ = 0;

#if WRT_TELEMETRY_LEVEL
  // Engine-local staging for hot-path counters and histograms (plain
  // integer bumps); published to the process-wide registry every
  // kTelemetryFlushSlots slots, at run_slots() return, and on destruction.
  static constexpr std::int64_t kTelemetryFlushSlots = 64;
  telemetry::TelemetryBatch telem_batch_;
#endif
};

}  // namespace wrt::wrtring
