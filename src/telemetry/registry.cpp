#include "telemetry/registry.hpp"

#include <algorithm>
#include <cmath>

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
    case CounterId::kSnapshots: return "snapshots";
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
    case HistogramId::kSpanNanos: return "span_nanos";
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

namespace {

/// Adds `delta` to a running sum, saturating at the int64 range.
void add_saturating(std::atomic<std::int64_t>& sum,
                    std::int64_t delta) noexcept {
  if (delta == 0) return;
  std::int64_t seen = sum.load(std::memory_order_relaxed);
  while (!sum.compare_exchange_weak(seen, saturating_add(seen, delta),
                                    std::memory_order_relaxed)) {
  }
}

}  // namespace

void MetricRegistry::observe(HistogramId id, double value) noexcept {
  PaddedHistogram& h = histograms_[static_cast<std::size_t>(id)];
  add_saturating(h.sum_scaled, scaled_sum(value));
  const std::size_t bucket = histogram_bucket(histogram_layout(id), value);
  if (bucket == kUnderflowBucket) {
    h.underflow.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  h.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
}

void MetricRegistry::merge_histogram(HistogramId id, std::size_t first,
                                     const std::uint64_t* buckets,
                                     std::size_t count,
                                     std::uint64_t underflow,
                                     std::int64_t sum_scaled) noexcept {
  PaddedHistogram& h = histograms_[static_cast<std::size_t>(id)];
  add_saturating(h.sum_scaled, sum_scaled);
  if (underflow != 0) {
    h.underflow.fetch_add(underflow, std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < count && first + i <= kMaxBuckets; ++i) {
    if (buckets[i] != 0) {
      h.buckets[first + i].fetch_add(buckets[i], std::memory_order_relaxed);
    }
  }
}

void TelemetryBatch::flush() noexcept {
  auto& registry = MetricRegistry::instance();
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    if (counters_[i] != 0) {
      registry.count(static_cast<CounterId>(i), counters_[i]);
      counters_[i] = 0;
    }
  }
  for (std::size_t i = 0; i < kHistogramCount; ++i) {
    Histogram& h = histograms_[i];
    const bool any_bucket = h.first <= h.last;
    if (!any_bucket && h.underflow == 0) continue;  // untouched
    const std::size_t count = any_bucket ? h.last - h.first + 1 : 0;
    std::uint64_t* touched = h.buckets.data() + (any_bucket ? h.first : 0);
    registry.merge_histogram(static_cast<HistogramId>(i), h.first, touched,
                             count, h.underflow, h.sum_scaled);
    std::fill(touched, touched + count, 0);
    h.sum_scaled = 0;
    h.underflow = 0;
    h.first = MetricRegistry::kMaxBuckets + 1;
    h.last = 0;
  }
}

void MetricRegistry::add_flush_source(TelemetryBatch* batch) {
  if (batch == nullptr) return;
  const util::MutexLock lock(sources_mutex_);
  if (std::find(sources_.begin(), sources_.end(), batch) == sources_.end()) {
    sources_.push_back(batch);
  }
}

void MetricRegistry::remove_flush_source(TelemetryBatch* batch) noexcept {
  const util::MutexLock lock(sources_mutex_);
  sources_.erase(std::remove(sources_.begin(), sources_.end(), batch),
                 sources_.end());
}

RegistrySnapshot MetricRegistry::snapshot() const {
  {
    const util::MutexLock lock(sources_mutex_);
    for (TelemetryBatch* source : sources_) source->flush();
  }
  RegistrySnapshot snap;
  snap.counters.reserve(kCounterCount);
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const auto id = static_cast<CounterId>(i);
    snap.counters.emplace_back(
        counter_name(id), counters_[i].value.load(std::memory_order_relaxed));
  }
  snap.histograms.reserve(kHistogramCount);
  for (std::size_t i = 0; i < kHistogramCount; ++i) {
    const auto id = static_cast<HistogramId>(i);
    RegistrySnapshot::HistogramData data;
    data.name = histogram_name(id);
    data.layout = histogram_layout(id);
    const PaddedHistogram& h = histograms_[i];
    data.underflow = h.underflow.load(std::memory_order_relaxed);
    data.sum = static_cast<double>(
                   h.sum_scaled.load(std::memory_order_relaxed)) /
               kSumScale;
    data.buckets.resize(data.layout.bucket_count + 1);
    data.total = data.underflow;
    for (std::size_t b = 0; b <= data.layout.bucket_count; ++b) {
      data.buckets[b] = h.buckets[b].load(std::memory_order_relaxed);
      data.total += data.buckets[b];
    }
    snap.histograms.push_back(std::move(data));
  }
  return snap;
}

void MetricRegistry::reset() noexcept {
  for (auto& counter : counters_) {
    counter.value.store(0, std::memory_order_relaxed);
  }
  for (auto& h : histograms_) {
    h.underflow.store(0, std::memory_order_relaxed);
    h.sum_scaled.store(0, std::memory_order_relaxed);
    for (auto& bucket : h.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace wrt::telemetry
