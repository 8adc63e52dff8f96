// Per-station binary event journal: the engines' only protocol event record.
//
// Counters say how much; the journal says when, where, and in what order —
// at production scale.  WRT-Ring records SAT residency, the data plane,
// membership churn and every step of its recovery (SAT loss, SAT_REC,
// cut-out, re-formation); TPT records its token losses, claims and tree
// rebuilds.  Each station owns a fixed-capacity ring of 24-byte POD
// records, so appending is an index computation plus a store (no
// allocation, no formatting), long runs overwrite their own oldest history
// per station instead of growing, and an overloaded station cannot evict
// another station's events.  Overwritten records are counted per ring and
// surfaced by every exporter.
//
// The journal is opt-in: engines take a Journal* and skip every record call
// when none is attached, which is why the always-on telemetry budget is the
// engine's own counters (MetricBlock) alone.  save()/load() round-trip the
// rings plus the RingMeta needed to evaluate the paper's bounds offline
// (tools/wrt_report).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/result.hpp"
#include "util/thread_safety.hpp"
#include "util/types.hpp"

namespace wrt::telemetry {

/// What happened.  Values are part of the WRTJRNL1 file format: new kinds
/// are appended, never inserted or renumbered.
enum class JournalKind : std::uint16_t {
  kSatArrive = 0,   ///< SAT reached this station
  kSatRelease,      ///< SAT forwarded downstream (arg = next station)
  kTransmit,        ///< local injection (arg = TrafficClass, value = delay
                    ///<   queue -> tx in ticks)
  kDeliver,         ///< frame absorbed here (arg = source station)
  kJoin,            ///< this station entered the ring (arg = ingress)
  kLeave,           ///< graceful leave completed (arg = leaver)
  kCutOut,          ///< this station was cut out (arg = SAT_REC origin)
  kSatRecStart,     ///< this station generated a SAT_REC (arg = suspect)
  kSatRecDone,      ///< SAT_REC returned here; ring re-established
  kQueueDepth,      ///< periodic sample (value = packets queued)
  kSnapshot,        ///< never written; kept for the WRTJRNL1 numbering
  kStall,           ///< this station wedged (fault plane)
  kResume,          ///< this station un-wedged
  kControlLost,     ///< lost JOIN_REQ/JOIN_ACK (arg = attempt number)
  kRebuildDrop,     ///< teardown discarded in-flight frames (arg = count)
  kSatLaunch,       ///< a fresh SAT was launched here (init, re-formation)
  kSatLost,         ///< the SAT died leaving here (arg = intended target)
  kRebuildStart,    ///< full ring re-formation began (at the old ring head)
  kRebuildDone,     ///< re-formation finished (at the new ring head)
  kRapStart,        ///< this station opened a RAP as ingress
  kJoinReject,      ///< this joiner was refused or gave up (arg = ingress)
  kTokenLost,       ///< TPT: token lost leaving here (arg = next holder)
  kClaimStart,      ///< TPT: this station detected the loss and claims
  kClaimDone,       ///< TPT: the claim returned to its origin here
  kTreeRebuild,     ///< TPT: tree rebuilt, rooted here
};

/// The last enumerator: every value above it is foreign to this build.
inline constexpr JournalKind kLastJournalKind = JournalKind::kTreeRebuild;

[[nodiscard]] const char* to_string(JournalKind kind) noexcept;

/// One fixed-width record.  POD on purpose: save()/load() move these as raw
/// bytes and the append path is a struct store.
struct JournalEvent {
  std::int64_t tick = 0;
  std::uint64_t value = 0;     ///< kind-specific payload (ticks, depth, ...)
  JournalKind kind{};
  std::uint16_t reserved = 0;  ///< zero; keeps the layout explicit
  std::uint32_t arg = 0;       ///< kind-specific peer station / class
};
static_assert(sizeof(JournalEvent) == 24, "journal record layout drifted");

/// Ring parameters embedded in the journal file so offline analysis can
/// evaluate the Theorem 1/2 bounds without the live engine.
struct RingMeta {
  std::int64_t ring_latency_slots = 0;  ///< S
  std::int64_t t_rap_slots = 0;         ///< T_rap
  std::vector<std::pair<NodeId, Quota>> quotas;  ///< per ring member
};

/// Shard-confined single-writer: the journal's append path is an index
/// computation plus a plain store, so exactly one engine thread may record
/// into a journal and readers (exporters, wrt_report) must wait for the
/// writer to quiesce.  Per-shard journals in a federation are merged
/// offline, never shared live.
class WRT_SHARD_CONFINED Journal {
 public:
  /// `capacity_per_station` bounds each station's ring (rounded up to 1).
  explicit Journal(std::size_t capacity_per_station = 4096);

  /// Appends to `station`'s ring, overwriting (and counting) the oldest
  /// record when full.  Stations are materialised lazily on first use;
  /// `station` indexes a dense table, so it is never kInvalidNode.
  void record(NodeId station, JournalKind kind, Tick tick,
              std::uint32_t arg = 0, std::uint64_t value = 0);

  [[nodiscard]] std::size_t capacity_per_station() const noexcept {
    return capacity_;
  }

  /// Stations that have at least one record, ascending NodeId.
  [[nodiscard]] std::vector<NodeId> stations() const;

  /// `station`'s surviving records, oldest first (unwrapped copy).
  [[nodiscard]] std::vector<JournalEvent> events(NodeId station) const;

  /// Every surviving record of every station, ascending tick; ties break
  /// by station id, then by record order.
  [[nodiscard]] std::vector<std::pair<NodeId, JournalEvent>> timeline() const;

  /// Records overwritten out of `station`'s ring.
  [[nodiscard]] std::uint64_t dropped(NodeId station) const noexcept;

  /// Total appends across all stations (surviving + overwritten).
  [[nodiscard]] std::uint64_t total_recorded() const noexcept {
    return total_;
  }
  [[nodiscard]] std::uint64_t total_dropped() const noexcept;

  void set_meta(RingMeta meta) { meta_ = std::move(meta); }
  [[nodiscard]] const RingMeta& meta() const noexcept { return meta_; }

  void clear();

  /// Binary serialisation (little-endian host assumed, versioned header).
  /// load() refuses a malformed file with an error instead of trusting it:
  /// an out-of-range or repeated station, or a kind this build does not
  /// know.
  [[nodiscard]] util::Status save(const std::string& path) const;
  [[nodiscard]] static util::Result<Journal> load(const std::string& path);

 private:
  struct StationRing {
    NodeId station = kInvalidNode;
    std::vector<JournalEvent> slots;  ///< capacity_ entries once recorded
                                      ///< into; a loaded ring's records
    std::size_t head = 0;             ///< oldest surviving record
    std::size_t count = 0;
    std::uint64_t dropped = 0;
  };

  [[nodiscard]] StationRing& ring_for(NodeId station);
  [[nodiscard]] const StationRing* find_ring(NodeId station) const noexcept;

  std::size_t capacity_;
  // Indexed by NodeId (dense: station ids are small by construction).
  std::vector<StationRing> rings_;
  std::uint64_t total_ = 0;
  RingMeta meta_;
};

}  // namespace wrt::telemetry
