// WRT-Ring protocol configuration.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/gilbert_elliott.hpp"
#include "util/result.hpp"
#include "util/types.hpp"

namespace wrt::wrtring {

/// When stations open Random Access Periods (Section 2.4.1).
enum class RapPolicy : std::uint8_t {
  kDisabled,  ///< no RAP, T_rap = 0 (closed network; pure Section 2.6 bounds)
  kRotating,  ///< every station RAPs when eligible (mutex + S_round fairness)
};

struct Config {
  /// Default per-station quota (l real-time, k non-real-time packets per
  /// SAT round, Section 2.2).  Overridden per station by `station_quotas`
  /// when non-empty (index = ring-construction order).
  Quota default_quota{1, 1};
  std::vector<Quota> station_quotas;

  /// When non-empty, the engine rings exactly these stations rather than
  /// every alive node — used by MultiRingCoordinator to run several
  /// independent rings over one topology (the Section-2.4.1 "may form
  /// another ring" case).  Re-formation after failures stays within this
  /// member set.
  std::vector<NodeId> members;

  /// Diffserv split of k (Section 2.3): k1 packets of the k quota are
  /// reserved for Assured traffic, the rest (k2 = k - k1) for best-effort.
  /// k1 = 0 disables the split (plain two-class WRT-Ring).
  std::uint32_t k1_assured = 0;

  /// Data-frame per-hop latency in slots (>= 1).  The SAT inherits this
  /// unless `sat_hop_latency_slots` > 0.  Ring latency S = N * hop latency.
  std::int64_t hop_latency_slots = 1;
  std::int64_t sat_hop_latency_slots = 0;  ///< 0 = same as hop_latency_slots

  /// RAP timing (Section 2.4.1): T_rap = T_ear + T_update.  T_ear must be
  /// >= 3 slots for the NEXT_FREE / JOIN_REQ / JOIN_ACK exchange.
  RapPolicy rap_policy = RapPolicy::kDisabled;
  std::int64_t t_ear_slots = 4;
  std::int64_t t_update_slots = 2;

  /// Minimum SAT rounds a station waits between its RAPs; the paper
  /// requires S_round(i) >= N; 0 means "track the current ring size".
  std::int64_t s_round_min = 0;

  /// SAT-loss timer (Section 2.5).  0 = derive automatically from the
  /// Theorem 1 bound for the current ring parameters.
  std::int64_t sat_timeout_slots = 0;

  /// Modelled cost of a full ring re-formation after an unrecoverable SAT
  /// loss: base + per_station * N slots of network downtime.
  std::int64_t rebuild_base_slots = 8;
  std::int64_t rebuild_per_station_slots = 2;

  /// Per-station queue capacity per class (packets); arrivals beyond this
  /// are dropped and recorded.
  std::size_t queue_capacity = 4096;

  /// When true, every data-slot transmission is resolved through the full
  /// CDMA interference model (O(N^2) per slot; used by fidelity tests and
  /// the Figure-1 bench).  When false, the distance-2 code-assignment
  /// invariant is checked once and per-hop delivery is direct.
  bool cdma_fidelity = false;

  /// Channel imperfection injection (src/fault/): per-hop loss for data
  /// frames, the SAT control signal, and join-handshake control messages.
  /// A lost SAT triggers the full Section-2.5 machinery (detection,
  /// SAT_REC, cut-out), so this models the "control signal can be
  /// frequently lost" wireless regime the Section-3.3 reaction-time
  /// comparison worries about.  Every (purpose, directed link) pair runs an
  /// independent seeded Gilbert–Elliott chain, so losses are correlated in
  /// time but independent across links and purposes — and zero draws
  /// happen when every process is disabled (the digest-preservation
  /// contract).  Independent per-hop loss with probability p is
  /// `channel.data = fault::GeParams::iid(p)` (likewise `sat`, `control`).
  fault::ChannelConfig channel;

  /// Lossy-join retry policy (Section 2.4.1 under loss).  A joiner whose
  /// JOIN_REQ or JOIN_ACK is lost observes a RAP round with no acknowledged
  /// insertion and backs off: it ignores NEXT_FREE broadcasts for
  /// base << min(attempt-1, exp_cap) slots, then listens again with a
  /// cleared NEXT_FREE table.  After `join_max_attempts` lost messages the
  /// join is abandoned cleanly (nothing half-inserted, RAP_mutex free).
  std::int64_t join_backoff_base_slots = 8;
  std::uint32_t join_backoff_exp_cap = 6;
  std::uint32_t join_max_attempts = 10;

  /// A healthy station cut out by a spurious SAT_REC (the paper blames the
  /// detector's predecessor, which may be innocent after a transient loss)
  /// immediately starts the Section-2.4.1 join procedure again when this
  /// is set and a RAP policy is active.
  bool auto_rejoin = false;

  /// ERPS-grade protection switching (RecoveryFsm, DESIGN.md §14).  All
  /// defaults keep the engine bit-identical to the paper's bare
  /// SAT_TIMER -> SAT_REC -> re-form chain (the SoA digest oracles gate
  /// that); each knob opts one hardening in.
  ///
  /// Guard window: for this many slots after a recovery, rebuild, or
  /// cancelled stale SAT_REC, fresh SAT_TIMER expiries are suppressed as
  /// stale echoes (the detector's timer is re-armed instead).  With the
  /// guard configured, a SAT_REC about to cut out a station that is alive
  /// and reachable again is cancelled in flight instead of cutting.
  std::int64_t guard_slots = 0;
  /// Wait-to-restore: a station cut out of the ring must stay continuously
  /// healthy this many slots before auto_rejoin re-admits it (a flap
  /// restarts the clock).  0 = re-admit immediately (legacy).
  std::int64_t wtr_slots = 0;
  /// Wait-to-block: same hold-off for stations released from an
  /// operator-forced switch (force_switch / clear_force_switch).
  std::int64_t wtb_slots = 0;
  /// Revertive recovery: a re-admitted station is inserted back after its
  /// original ring predecessor with its original quota and Diffserv split,
  /// so rotation history and the Theorem 1/2 bounds survive the blip.
  /// Non-revertive (default) keeps the arbitrary-ingress legacy behaviour.
  bool revertive = false;

  [[nodiscard]] std::int64_t effective_sat_hop_latency() const noexcept {
    return sat_hop_latency_slots > 0 ? sat_hop_latency_slots
                                     : hop_latency_slots;
  }

  [[nodiscard]] std::int64_t t_rap_slots() const noexcept {
    return rap_policy == RapPolicy::kDisabled ? 0
                                              : t_ear_slots + t_update_slots;
  }

  /// Rejects configurations the protocol cannot run correctly (checked by
  /// Engine::init before anything else).
  [[nodiscard]] util::Status validate() const;
};

}  // namespace wrt::wrtring
