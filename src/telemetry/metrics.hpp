// Telemetry macro layer and metric catalogue.
//
// The engines are instrumented with WRT_COUNT / WRT_OBSERVE at the
// protocol's observable moments (SAT handoff, slot transmit, membership
// churn, SAT_REC recovery).  Each macro names the engine's own
// MetricBlock (telemetry/registry.hpp): in a WRT_TELEMETRY=ON build a
// WRT_COUNT is one plain integer add into that block and a WRT_OBSERVE
// adds one bucket-index computation on top.  With WRT_TELEMETRY=OFF every
// macro expands to `((void)0)` so the hot path is bit-for-bit the release
// binary (the check.sh digest oracle and CI's telemetry gate rely on
// this).
//
// The counter/histogram ids are closed enums rather than string keys: the
// hot path never hashes, and the exporters recover stable snake_case names
// from the tables below.  Pure observation only — nothing in this layer may
// feed back into protocol decisions, which is what keeps the --digest
// output identical whether telemetry is compiled in or out.
#pragma once

#include <cstddef>
#include <cstdint>

#ifndef WRT_TELEMETRY_LEVEL
#define WRT_TELEMETRY_LEVEL 1
#endif

namespace wrt::telemetry {

inline constexpr bool kTelemetryEnabled = WRT_TELEMETRY_LEVEL != 0;

/// Monotonic counters.  Keep in sync with counter_name().
enum class CounterId : std::uint16_t {
  kSlotsStepped = 0,      ///< engine MAC slots advanced
  kSatHandoffs,           ///< SAT released downstream (link traversals)
  kSatArrivals,           ///< SAT arrivals at a station
  kSatHolds,              ///< SAT seized by a not-satisfied station
  kTxRealTime,            ///< local injections, Premium (l quota)
  kTxAssured,             ///< local injections, Assured (k1 share)
  kTxBestEffort,          ///< local injections, best-effort (k2 share)
  kTransitForwards,       ///< frames forwarded in transit
  kDeliveries,            ///< frames absorbed by their destination
  kFramesLost,            ///< lost on a hop: silent station, unreachable
                          ///< hop, or channel loss (frames_lost_link)
  kFramesLostRebuild,     ///< in-flight frames discarded by a teardown
  kFramesLostChurn,       ///< in-flight frames discarded by a join update
  kControlMsgsLost,       ///< lost NEXT_FREE / JOIN_REQ / JOIN_ACK
  kJoinRetries,           ///< joiner backoffs after a lost handshake
  kJoins,                 ///< completed join handshakes
  kJoinsRejected,         ///< admission-refused joins
  kLeaves,                ///< completed graceful leaves
  kCutOuts,               ///< SAT_REC cut-outs (incl. graceful)
  kSatLossesDetected,     ///< SAT_TIMER expiries
  kSatRecoveries,         ///< SAT_REC made it back (ring survived)
  kRingRebuilds,          ///< full ring re-formations
  kRapsStarted,           ///< random access periods opened
  kTptTokenPasses,        ///< TPT: token link traversals
  kTptTokenRounds,        ///< TPT: completed token tours
  kTptClaims,             ///< TPT: claim processes started
  kTptTreeRebuilds,       ///< TPT: full tree re-formations
  kRecoveryFsmTransitions,///< RecoveryFsm state changes
  kStaleRecSuppressed,    ///< stale SAT_REC / SF indications suppressed
  kWtrHoldoffs,           ///< rejoins held back by the WTR timer
  kSpuriousCutOuts,       ///< healthy stations cut out by a stale SAT_REC
  kCount_,                ///< sentinel — number of counters
};

/// Fixed-bucket histograms.  Keep in sync with histogram_name() and
/// histogram_layout().
enum class HistogramId : std::uint16_t {
  kSatRotationSlots = 0,  ///< per-station SAT inter-arrival time
  kRtAccessDelaySlots,    ///< real-time packet queue -> first tx
  kBeAccessDelaySlots,    ///< non-real-time packet queue -> first tx
  kQueueDepth,            ///< station queue depth at sample points
  kJoinLatencySlots,      ///< join request -> in ring
  kSatRecSlots,           ///< SAT loss -> SAT_REC completion; a
                          ///< re-formation's restore lands only in
                          ///< kRecoveryMttrSlots (EngineStats::
                          ///< recovery_total_slots holds both)
  kSatDetectSlots,        ///< SAT loss -> SAT_TIMER detection (MTTD)
  kRecoveryMttrSlots,     ///< RecoveryFsm MTTR: loss -> ring restored
  kCount_,                ///< sentinel — number of histograms
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(CounterId::kCount_);
inline constexpr std::size_t kHistogramCount =
    static_cast<std::size_t>(HistogramId::kCount_);

/// Stable snake_case export name of a counter.
[[nodiscard]] const char* counter_name(CounterId id) noexcept;

/// Stable snake_case export name of a histogram.
[[nodiscard]] const char* histogram_name(HistogramId id) noexcept;

/// Bucket layout of a histogram: `bucket_count` linear buckets of `width`
/// starting at `lo`; values past the top land in the overflow bucket.
struct HistogramLayout {
  double lo = 0.0;
  double width = 1.0;
  std::uint32_t bucket_count = 32;
};

/// Layout of each histogram.  constexpr, so a WRT_OBSERVE folds its
/// layout at compile time and a power-of-two width divides by a multiply.
[[nodiscard]] constexpr HistogramLayout histogram_layout(
    HistogramId id) noexcept {
  switch (id) {
    // Rotation: Theorem-1 bounds on the reference rings land well under
    // 1024 slots; 64 x 16-slot buckets resolve the distribution shape.
    case HistogramId::kSatRotationSlots: return {0.0, 16.0, 64};
    case HistogramId::kRtAccessDelaySlots: return {0.0, 8.0, 64};
    case HistogramId::kBeAccessDelaySlots: return {0.0, 32.0, 64};
    case HistogramId::kQueueDepth: return {0.0, 2.0, 64};
    case HistogramId::kJoinLatencySlots: return {0.0, 64.0, 64};
    case HistogramId::kSatRecSlots: return {0.0, 32.0, 64};
    // Detection latency is bounded by SAT_TIME (Theorem 1); finer buckets
    // than kSatRecSlots since MTTD excludes the rebuild tail.
    case HistogramId::kSatDetectSlots: return {0.0, 16.0, 64};
    // MTTR spans detection + SAT_REC circuit (and, worst case, a rebuild);
    // wider buckets than kSatRecSlots to keep the rebuild tail resolved.
    case HistogramId::kRecoveryMttrSlots: return {0.0, 32.0, 64};
    case HistogramId::kCount_: break;
  }
  return {};
}

}  // namespace wrt::telemetry

// ---------------------------------------------------------------------------
// Instrumentation macros
// ---------------------------------------------------------------------------
//
//   WRT_COUNT(telemetry_, kSatHandoffs);              // += 1
//   WRT_COUNT_N(telemetry_, kTxRealTime, burst);      // += burst
//   WRT_OBSERVE(telemetry_, kSatRotationSlots, 42.0); // histogram sample
//
// `block` is a telemetry::MetricBlock, normally the engine's own; under
// WRT_TELEMETRY=OFF it is not evaluated.

#if WRT_TELEMETRY_LEVEL

#define WRT_COUNT(block, id) (block).count(::wrt::telemetry::CounterId::id)
#define WRT_COUNT_N(block, id, n)                \
  (block).count(::wrt::telemetry::CounterId::id, \
                static_cast<std::uint64_t>(n))
#define WRT_OBSERVE(block, id, value)                \
  (block).observe(::wrt::telemetry::HistogramId::id, \
                  static_cast<double>(value))

#else

#define WRT_COUNT(block, id) ((void)0)
#define WRT_COUNT_N(block, id, n) ((void)(n))
#define WRT_OBSERVE(block, id, value) ((void)(value))

#endif
