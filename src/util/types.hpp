// Core vocabulary types shared across the WRT-Ring code base.
//
// The paper normalises every time quantity to the slot duration; we keep a
// finer integer unit (the "tick") so that sub-slot quantities such as the
// control-signal processing/propagation time (T_proc + T_prop, Section 3.3)
// remain representable without floating point.  One slot is kTicksPerSlot
// ticks; all protocol state machines advance in ticks and expose
// slot-normalised values at the API boundary.
#pragma once

#include <compare>
#include <cstdint>
#include <limits>
#include <string>

namespace wrt {

/// Integer simulation time in ticks.
using Tick = std::int64_t;

/// Number of ticks per MAC slot.  Chosen as a power of two so that
/// slot <-> tick conversions are exact and cheap.
inline constexpr Tick kTicksPerSlot = 16;

/// Sentinel for "no time" / "never".
inline constexpr Tick kNeverTick = std::numeric_limits<Tick>::max();

/// Convert a slot count to ticks.
[[nodiscard]] constexpr Tick slots_to_ticks(std::int64_t slots) noexcept {
  return slots * kTicksPerSlot;
}

/// Convert ticks to whole slots (floor).
[[nodiscard]] constexpr std::int64_t ticks_to_slots(Tick ticks) noexcept {
  return ticks / kTicksPerSlot;
}

/// Convert ticks to slots as a real number (for reporting only).
[[nodiscard]] constexpr double ticks_to_slots_real(Tick ticks) noexcept {
  return static_cast<double>(ticks) / static_cast<double>(kTicksPerSlot);
}

/// Identifier of a station (node).  Stations keep their identifier across
/// topology changes; ring positions are separate (see ring::VirtualRing).
using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// Identifier of a traffic flow.
using FlowId = std::uint32_t;
inline constexpr FlowId kInvalidFlow = std::numeric_limits<FlowId>::max();

/// Identifier of a CDMA spreading code.
using CdmaCode = std::uint16_t;
inline constexpr CdmaCode kInvalidCode = std::numeric_limits<CdmaCode>::max();
/// The common (broadcast) code every station owns in addition to its own
/// receive code (Section 2.1: "each station is provided with a common code").
inline constexpr CdmaCode kBroadcastCode = 0;

/// Traffic classes.  The paper integrates two MAC-level types (real-time and
/// best-effort, Section 2.2) and maps them onto three Diffserv classes
/// (Section 2.3): l <-> Premium, k = k1 (Assured) + k2 (best-effort).
enum class TrafficClass : std::uint8_t {
  kRealTime = 0,  ///< Premium / delay-bounded; consumes the l quota.
  kAssured = 1,   ///< Assured; consumes the k1 share of the k quota.
  kBestEffort = 2 ///< Best-effort; consumes the k2 share of the k quota.
};

[[nodiscard]] std::string to_string(TrafficClass c);

/// Per-station transmission quotas (Section 2.2).  `l` bounds the number of
/// real-time packets a station may transmit per SAT round; `k` bounds the
/// non-real-time packets.  For Diffserv (Section 2.3) `k` is split into
/// `k1` (Assured) and `k2` (best-effort) with k1 + k2 = k.
struct Quota {
  std::uint32_t l = 1;
  std::uint32_t k = 1;

  friend constexpr auto operator<=>(const Quota&, const Quota&) = default;

  [[nodiscard]] constexpr std::uint32_t total() const noexcept { return l + k; }
};

}  // namespace wrt
