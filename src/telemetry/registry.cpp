#include "telemetry/registry.hpp"

#include <utility>

namespace wrt::telemetry {

const char* counter_name(CounterId id) noexcept {
  switch (id) {
    case CounterId::kSlotsStepped: return "slots_stepped";
    case CounterId::kSatHandoffs: return "sat_handoffs";
    case CounterId::kSatArrivals: return "sat_arrivals";
    case CounterId::kSatHolds: return "sat_holds";
    case CounterId::kTxRealTime: return "tx_real_time";
    case CounterId::kTxAssured: return "tx_assured";
    case CounterId::kTxBestEffort: return "tx_best_effort";
    case CounterId::kTransitForwards: return "transit_forwards";
    case CounterId::kDeliveries: return "deliveries";
    case CounterId::kFramesLost: return "frames_lost";
    case CounterId::kFramesLostRebuild: return "frames_lost_rebuild";
    case CounterId::kFramesLostChurn: return "frames_lost_churn";
    case CounterId::kControlMsgsLost: return "control_msgs_lost";
    case CounterId::kJoinRetries: return "join_retries";
    case CounterId::kJoins: return "joins";
    case CounterId::kJoinsRejected: return "joins_rejected";
    case CounterId::kLeaves: return "leaves";
    case CounterId::kCutOuts: return "cut_outs";
    case CounterId::kSatLossesDetected: return "sat_losses_detected";
    case CounterId::kSatRecoveries: return "sat_recoveries";
    case CounterId::kRingRebuilds: return "ring_rebuilds";
    case CounterId::kRapsStarted: return "raps_started";
    case CounterId::kTptTokenPasses: return "tpt_token_passes";
    case CounterId::kTptTokenRounds: return "tpt_token_rounds";
    case CounterId::kTptClaims: return "tpt_claims";
    case CounterId::kTptTreeRebuilds: return "tpt_tree_rebuilds";
    case CounterId::kRecoveryFsmTransitions: return "recovery_fsm_transitions";
    case CounterId::kStaleRecSuppressed: return "stale_rec_suppressed";
    case CounterId::kWtrHoldoffs: return "wtr_holdoffs";
    case CounterId::kSpuriousCutOuts: return "spurious_cut_outs";
    case CounterId::kCount_: break;
  }
  return "unknown";
}

const char* histogram_name(HistogramId id) noexcept {
  switch (id) {
    case HistogramId::kSatRotationSlots: return "sat_rotation_slots";
    case HistogramId::kRtAccessDelaySlots: return "rt_access_delay_slots";
    case HistogramId::kBeAccessDelaySlots: return "be_access_delay_slots";
    case HistogramId::kQueueDepth: return "queue_depth";
    case HistogramId::kJoinLatencySlots: return "join_latency_slots";
    case HistogramId::kSatRecSlots: return "sat_rec_slots";
    case HistogramId::kSatDetectSlots: return "sat_detect_slots";
    case HistogramId::kRecoveryMttrSlots: return "recovery_mttr_slots";
    case HistogramId::kCount_: break;
  }
  return "unknown";
}

double RegistrySnapshot::HistogramData::quantile(double q) const noexcept {
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(total == 0 ? 0 : total - 1));
  std::uint64_t seen = underflow;
  if (rank < seen) return layout.lo;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    seen += buckets[b];
    if (rank < seen) {
      return layout.lo + layout.width * static_cast<double>(b);
    }
  }
  return layout.lo + layout.width * static_cast<double>(layout.bucket_count);
}

RegistrySnapshot MetricBlock::snapshot() const {
  RegistrySnapshot snap;
  snap.counters.reserve(kCounterCount);
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    snap.counters.emplace_back(counter_name(static_cast<CounterId>(i)),
                               counters_[i]);
  }
  snap.histograms.reserve(kHistogramCount);
  for (std::size_t i = 0; i < kHistogramCount; ++i) {
    const auto id = static_cast<HistogramId>(i);
    RegistrySnapshot::HistogramData data;
    data.name = histogram_name(id);
    data.layout = histogram_layout(id);
    const Histogram& h = histograms_[i];
    data.underflow = h.underflow;
    data.sum = static_cast<double>(h.sum_scaled) / kSumScale;
    data.buckets.assign(h.buckets.begin(),
                        h.buckets.begin() + data.layout.bucket_count + 1);
    data.total = data.underflow;
    for (const std::uint64_t count : data.buckets) data.total += count;
    snap.histograms.push_back(std::move(data));
  }
  return snap;
}

}  // namespace wrt::telemetry
