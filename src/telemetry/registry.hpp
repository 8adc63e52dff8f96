// Engine-local metric store.
//
// Each engine (wrtring::Engine, tpt::TptEngine) owns one MetricBlock: a
// fixed block of plain integer counters and fixed-bucket histograms that
// its WRT_COUNT / WRT_OBSERVE sites bump in place.  An engine is driven by
// one thread, so its block is too, and it needs no synchronisation; the
// exporters read a block through snapshot(), which copies it out under
// the stable export names.  Two engines in one process (a federation's
// rings, the MACs compared in one run) never share a counter.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"
#include "util/thread_safety.hpp"

namespace wrt::telemetry {

/// Fixed-point scale for histogram running sums: a sum is an integer count
/// of 1/1024ths, saturated at the int64 range (scaled_sum, saturating_add).
inline constexpr double kSumScale = 1024.0;

/// histogram_bucket()'s answer for a value below the layout's `lo`.
inline constexpr std::size_t kUnderflowBucket = ~std::size_t{0};

/// The bucket `value` lands in: 0 .. bucket_count - 1 for the linear
/// buckets, bucket_count for the overflow bucket (values past the top, NaN
/// and +inf), kUnderflowBucket below `lo` (-inf included).
[[nodiscard]] constexpr std::size_t histogram_bucket(
    const HistogramLayout& layout, double value) noexcept {
  if (value < layout.lo) return kUnderflowBucket;
  const double offset = (value - layout.lo) / layout.width;
  // NaN fails the comparison and overflows; no NaN is converted.
  return offset < static_cast<double>(layout.bucket_count)
             ? static_cast<std::size_t>(offset)
             : layout.bucket_count;
}

/// `value` in kSumScale fixed point, for a histogram's running sum: NaN and
/// +-inf add nothing, and a finite value past the int64 range saturates.
[[nodiscard]] inline std::int64_t scaled_sum(double value) noexcept {
  if (!std::isfinite(value)) return 0;
  constexpr double kTwo63 = 9223372036854775808.0;
  const double scaled = value * kSumScale;
  if (scaled >= kTwo63) return std::numeric_limits<std::int64_t>::max();
  if (scaled < -kTwo63) return std::numeric_limits<std::int64_t>::min();
  return static_cast<std::int64_t>(scaled);
}

/// a + b, saturated at the int64 range.
[[nodiscard]] constexpr std::int64_t saturating_add(std::int64_t a,
                                                    std::int64_t b) noexcept {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  if (b > 0 && a > kMax - b) return kMax;
  if (b < 0 && a < kMin - b) return kMin;
  return a + b;
}

/// Point-in-time copy of every counter and histogram of one block; what
/// the exporters and SnapshotTimeline consume.
struct RegistrySnapshot {
  struct HistogramData {
    std::string name;
    HistogramLayout layout;
    std::vector<std::uint64_t> buckets;  ///< bucket_count + 1 (overflow last)
    std::uint64_t underflow = 0;
    std::uint64_t total = 0;
    double sum = 0.0;  ///< sum of observed values (mean = sum / total)

    [[nodiscard]] double mean() const noexcept {
      return total == 0 ? 0.0 : sum / static_cast<double>(total);
    }
    /// Quantile estimate: lower edge of the bucket holding rank q*total.
    [[nodiscard]] double quantile(double q) const noexcept;
  };

  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<HistogramData> histograms;

  [[nodiscard]] std::uint64_t counter(CounterId id) const {
    return counters[static_cast<std::size_t>(id)].second;
  }
  [[nodiscard]] const HistogramData& histogram(HistogramId id) const {
    return histograms[static_cast<std::size_t>(id)];
  }
};

/// One engine's counters and histograms.  Shard-confined like its owner:
/// only the owning engine's thread writes or snapshots it.
class WRT_SHARD_CONFINED MetricBlock {
 public:
  /// Largest bucket_count any HistogramLayout may declare.
  static constexpr std::uint32_t kMaxBuckets = 64;

  void count(CounterId id, std::uint64_t by = 1) noexcept {
    counters_[static_cast<std::size_t>(id)] += by;
  }

  /// Records one observation.  With a constant `id` (WRT_OBSERVE) the
  /// layout folds at compile time and a power-of-two width divides by a
  /// multiply.
  void observe(HistogramId id, double value) noexcept {
    const std::size_t bucket = histogram_bucket(histogram_layout(id), value);
    Histogram& h = histograms_[static_cast<std::size_t>(id)];
    h.sum_scaled = saturating_add(h.sum_scaled, scaled_sum(value));
    if (bucket == kUnderflowBucket) {
      ++h.underflow;
    } else {
      ++h.buckets[bucket];
    }
  }

  [[nodiscard]] std::uint64_t counter(CounterId id) const noexcept {
    return counters_[static_cast<std::size_t>(id)];
  }

  /// Copies every metric out under its export name.
  [[nodiscard]] RegistrySnapshot snapshot() const;

 private:
  /// Histogram over linear buckets; bucket bucket_count is the overflow.
  /// Every observation lands in exactly one of underflow/buckets, so
  /// snapshot() derives the total by summation.
  struct Histogram {
    std::int64_t sum_scaled = 0;  ///< sum of observations, in kSumScale units
    std::uint64_t underflow = 0;
    std::array<std::uint64_t, kMaxBuckets + 1> buckets{};
  };

  std::array<std::uint64_t, kCounterCount> counters_{};
  std::array<Histogram, kHistogramCount> histograms_{};
};

}  // namespace wrt::telemetry
