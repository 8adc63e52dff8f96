// FaultPlan: a deterministic, seeded schedule of timed fault events.
//
// Recovery scenarios used to be hand-written test code (run N slots, kill
// station 3, ...).  A FaultPlan makes the fault schedule a first-class,
// serialisable artifact: a sorted list of timed events covering every
// disturbance the protocol must survive — crash, stall/resume (a wedged
// station that stays associated, unlike a crash), graceful leave, per-link
// degrade/break/heal/restore, topology partition + heal, one-shot SAT and
// control message drops, and forced rejoins.  Plans load from a small
// line-based text format, serialise back canonically, and can be generated
// randomly from a seed (the chaos soak's input), so scenarios, benches,
// and tests all speak the same fault language.
//
// The plan is pure data: applying it to an Engine/Topology pair lives in
// wrtring::Scenario (this library must not depend on the protocol stack).
//
// Text format, one event per line (blank lines and `#` comments ignored):
//
//   @<slot> crash <node>
//   @<slot> stall <node>
//   @<slot> resume <node>
//   @<slot> leave <node>
//   @<slot> link-degrade <a> <b> avg=<p> dwell=<offers> [bad=<p>]
//   @<slot> link-break <a> <b>
//   @<slot> link-heal <a> <b>
//   @<slot> link-restore <a> <b>
//   @<slot> partition <node>... | <node>... [| ...]
//   @<slot> heal-partition
//   @<slot> drop-sat
//   @<slot> drop-control <next-free|join-req|join-ack>
//   @<slot> join <node> [l=<l>] [k=<k>]
//   @<slot> flap <a> <b> period=<slots> duty=<pct> cycles=<n>
//   @<slot> force-switch <node>
//   @<slot> clear-switch <node>
//   @<slot> mark <label...>
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/gilbert_elliott.hpp"
#include "util/result.hpp"
#include "util/types.hpp"

namespace wrt::fault {

enum class FaultKind : std::uint8_t {
  kCrash,          ///< station dies without notice (battery out)
  kStall,          ///< station wedges: stops forwarding but stays associated
  kResume,         ///< stalled station un-wedges
  kLeave,          ///< graceful leave announcement
  kLinkDegrade,    ///< per-link Gilbert–Elliott override (both directions)
  kLinkBreak,      ///< hard link failure regardless of distance
  kLinkHeal,       ///< undo break and degrade on the link
  kLinkRestore,    ///< undo a hard break only; a degrade stays in place
  kPartition,      ///< split the topology into isolated groups
  kHealPartition,  ///< remove the partition
  kDropSat,        ///< one-shot SAT/SAT_REC drop on its next hop
  kDropControl,    ///< one-shot handshake-message drop (arg: ControlMsg)
  kJoin,           ///< forced (re)join request
  kFlap,           ///< periodic link break/restore cycling (WTR stimulus)
  kForceSwitch,    ///< operator forces a station out (ERPS forced switch)
  kClearSwitch,    ///< operator releases the forced switch (WTB starts)
  kMark,           ///< free-form label for logs
};

[[nodiscard]] const char* to_string(FaultKind kind) noexcept;

/// Which join-handshake message a kDropControl event kills; mirrors the
/// engine's ControlMsg enum (kept numeric here to avoid the dependency).
inline constexpr std::uint8_t kCtrlNextFree = 0;
inline constexpr std::uint8_t kCtrlJoinReq = 1;
inline constexpr std::uint8_t kCtrlJoinAck = 2;

struct FaultEvent {
  std::int64_t slot = 0;
  FaultKind kind = FaultKind::kMark;
  NodeId a = kInvalidNode;  ///< primary station / link endpoint
  NodeId b = kInvalidNode;  ///< second link endpoint
  GeParams ge{};            ///< kLinkDegrade parameters
  Quota quota{1, 1};        ///< kJoin quota
  std::uint8_t control_msg = kCtrlNextFree;      ///< kDropControl target
  std::vector<std::vector<NodeId>> groups{};     ///< kPartition groups
  std::string label{};                           ///< kMark text
  // kFlap: the link a <-> b cycles down/up `cycles` times starting at
  // `slot`; each cycle is `period_slots` long and the link is down for the
  // first `duty_pct` percent of it.  Scenario expands this into timed
  // link-break/link-restore pairs, so the plan stays pure data.
  std::int64_t period_slots = 0;
  std::uint32_t duty_pct = 50;
  std::uint32_t cycles = 0;
};

/// Refuses an event that names a station outside 0..node_count-1, a
/// kLinkDegrade whose Gilbert–Elliott parameters do not validate, or a
/// kDropControl target the join handshake does not have.  Scenario checks
/// every event before it applies it; tools check a loaded plan up front.
[[nodiscard]] util::Status check_event(const FaultEvent& event,
                                       std::size_t node_count);

class FaultPlan {
 public:
  std::vector<FaultEvent> events;  ///< sorted by slot (stable)

  /// Appends an event keeping the slot order (stable for equal slots).
  void add(FaultEvent event);

  [[nodiscard]] std::int64_t last_slot() const noexcept {
    return events.empty() ? 0 : events.back().slot;
  }

  /// Canonical text form (parse(to_text()) round-trips).
  [[nodiscard]] std::string to_text() const;

  [[nodiscard]] static util::Result<FaultPlan> parse(const std::string& text);
  [[nodiscard]] static util::Result<FaultPlan> load(const std::string& path);
  [[nodiscard]] util::Status save(const std::string& path) const;

  /// Randomized-plan knobs for the chaos soak.  The generator keeps plans
  /// survivable by construction: it never plans below `min_alive` stations,
  /// resumes every stall, and heals every break/degrade/partition before
  /// `horizon_slots * 9 / 10`, so the tail of the run is quiet and a
  /// recovery deadline is meaningful.
  struct RandomOptions {
    std::size_t n_stations = 12;    ///< ring members are nodes 0..n-1
    std::vector<NodeId> parked;     ///< joiner candidates outside the ring
    std::int64_t horizon_slots = 10000;
    std::size_t events = 8;         ///< primary faults (heals come extra)
    std::size_t min_alive = 5;
    /// Flapping-link events (generated after — and independently of — the
    /// primary faults, so enabling them never perturbs the event stream an
    /// existing seed produces).  0 keeps legacy plans byte-identical.
    std::size_t flap_events = 0;
  };

  /// Deterministic: the same (seed, options) always yields the same plan.
  [[nodiscard]] static FaultPlan random(std::uint64_t seed,
                                        const RandomOptions& options);
};

}  // namespace wrt::fault
