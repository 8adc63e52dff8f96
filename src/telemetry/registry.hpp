// Process-wide metric registry.
//
// One fixed-size block of cache-line-padded relaxed atomics, shared by every
// engine in the process.  Parallel replications (sim::run_replications) all
// write the same registry concurrently; padding keeps their counters from
// false-sharing, relaxed ordering keeps an increment a single uncontended
// `lock add`.  Snapshots are advisory (taken while writers run), which is
// the standard contract for monitoring counters: totals are exact once
// writers quiesce, momentarily skewed while they don't.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"
#include "util/thread_safety.hpp"

namespace wrt::telemetry {

class TelemetryBatch;

/// Fixed-point scale for histogram running sums: atomic doubles would need
/// a CAS loop, a 1/1024th-scaled integer keeps the hot path to one add.
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

/// Point-in-time copy of every counter and histogram; what the exporters
/// and the periodic snapshotter consume.
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

// The registry is the one sanctioned piece of cross-shard mutable state:
// every worker thread (replication workers today, federation shards
// tomorrow) writes it concurrently.  Each field is therefore an atomic, a
// lock, or annotated with the lock that guards it — enforced by wrt_lint's
// `unguarded-shared-field` rule via the registrations below and by Clang's
// `-Wthread-safety` on the annotations themselves.
//
// wrt-lint-shared-type(MetricRegistry): written concurrently by every shard
// wrt-lint-shared-type(PaddedCounter): element of the registry counter block
// wrt-lint-shared-type(PaddedHistogram): element of the registry histogram block
class MetricRegistry {
 public:
  /// Largest bucket_count any HistogramLayout may declare.
  static constexpr std::uint32_t kMaxBuckets = 64;

  [[nodiscard]] static MetricRegistry& instance() noexcept {
    // wrt-lint-allow(mutable-global-state): the one sanctioned cross-shard sink (every field atomic or lock-guarded)
    static MetricRegistry registry;
    return registry;
  }

  /// The WRT_COUNT hot path: one relaxed fetch_add on a padded slot.
  void count(CounterId id, std::uint64_t by = 1) noexcept {
    counters_[static_cast<std::size_t>(id)].value.fetch_add(
        by, std::memory_order_relaxed);
  }

  /// The WRT_OBSERVE hot path: bucket index + one relaxed fetch_add (plus
  /// a relaxed sum update so snapshots can report means).
  void observe(HistogramId id, double value) noexcept;

  /// Bulk merge of locally staged histogram state (TelemetryBatch::flush):
  /// `buckets[i]` is the count of bucket `first + i`, for i < `count`; one
  /// fetch_add per non-zero bucket rather than per observation.
  void merge_histogram(HistogramId id, std::size_t first,
                       const std::uint64_t* buckets, std::size_t count,
                       std::uint64_t underflow,
                       std::int64_t sum_scaled) noexcept;

  [[nodiscard]] std::uint64_t counter(CounterId id) const noexcept {
    return counters_[static_cast<std::size_t>(id)].value.load(
        std::memory_order_relaxed);
  }

  /// Copies every metric out (advisory while writers run).  Registered
  /// flush sources are drained first, so totals include deltas an engine
  /// has staged but not yet batch-flushed (see add_flush_source).
  [[nodiscard]] RegistrySnapshot snapshot() const
      WRT_EXCLUDES(sources_mutex_);

  /// Registers a staging batch to be drained by every snapshot().  An
  /// engine driven by bare step() calls flushes its batch only every
  /// kTelemetryFlushSlots slots; without this hook a snapshot taken
  /// between flushes under-reports by up to one flush interval.  The
  /// caller must remove_flush_source() before the batch is destroyed.
  /// Contract: a registered batch must only be written from the thread
  /// that takes snapshots (the single-threaded driver pattern) — batches
  /// owned by replication worker threads must NOT be registered, and no
  /// thread may take a snapshot() while engines run on other threads (the
  /// drain would race their batch writes; see DESIGN.md "Concurrency
  /// model").
  void add_flush_source(TelemetryBatch* batch) WRT_EXCLUDES(sources_mutex_);

  void remove_flush_source(TelemetryBatch* batch) noexcept
      WRT_EXCLUDES(sources_mutex_);

  /// Zeroes everything.  For tests and bench isolation only — production
  /// consumers difference successive snapshots instead.
  void reset() noexcept;

 private:
  MetricRegistry() = default;

  // One cache line per counter: replication threads hammer disjoint lines.
  struct alignas(64) PaddedCounter {
    std::atomic<std::uint64_t> value{0};
  };

  /// Histogram over linear buckets; bucket bucket_count is the overflow.
  /// No running total: every observation lands in exactly one of
  /// underflow/buckets, so snapshot() derives the total by summation and
  /// the hot path stays at two relaxed fetch_adds (sum + bucket).
  struct PaddedHistogram {
    alignas(64) std::atomic<std::uint64_t> underflow{0};
    /// Sum of observations, in fixed-point 1/1024ths, saturated at the
    /// int64 range (scaled_sum, saturating_add).
    std::atomic<std::int64_t> sum_scaled{0};
    /// kMaxBuckets linear buckets + 1 overflow slot.
    std::array<std::atomic<std::uint64_t>, kMaxBuckets + 1> buckets{};
  };

  std::array<PaddedCounter, kCounterCount> counters_{};
  std::array<PaddedHistogram, kHistogramCount> histograms_{};
  // Flush-source list: cold (mutated on engine construction/destruction,
  // walked per snapshot), so a mutex-guarded vector is plenty.  mutable
  // because snapshot() is logically const but must drain the sources.
  mutable util::Mutex sources_mutex_;
  mutable std::vector<TelemetryBatch*> sources_ WRT_GUARDED_BY(sources_mutex_);
};

/// Single-writer staging area for a hot loop (one per engine).  Events bump
/// plain integers — no atomics, no cache-line protocol — and flush()
/// publishes the accumulated deltas to the process-wide registry with one
/// fetch_add per touched slot.  An engine flushing every K slots amortises
/// its per-slot telemetry to a handful of atomics per K slots, which is
/// what keeps the instrumented hot path within the <= 2 % budget.
///
/// Registry totals therefore lag a live engine by at most one flush
/// interval; Engine::run_slots flushes on return (and the batch flushes on
/// destruction), so totals are exact whenever a driving loop has handed
/// control back.
///
/// Shard-confined: exactly one thread (the owning engine's) may touch a
/// batch.  flush() publishes through atomics, so concurrent batches on
/// different threads are safe; one batch on two threads is not.
class WRT_SHARD_CONFINED TelemetryBatch {
 public:
  TelemetryBatch() = default;
  TelemetryBatch(const TelemetryBatch&) = delete;
  TelemetryBatch& operator=(const TelemetryBatch&) = delete;
  ~TelemetryBatch() { flush(); }

  void count(CounterId id, std::uint64_t by = 1) noexcept {
    counters_[static_cast<std::size_t>(id)] += by;
  }

  /// Stages one observation.  With a constant `id` (WRT_BATCH_OBSERVE)
  /// the layout folds at compile time.
  void observe(HistogramId id, double value) noexcept {
    const std::size_t bucket = histogram_bucket(histogram_layout(id), value);
    Histogram& h = histograms_[static_cast<std::size_t>(id)];
    h.sum_scaled = saturating_add(h.sum_scaled, scaled_sum(value));
    if (bucket == kUnderflowBucket) {
      ++h.underflow;
      return;
    }
    ++h.buckets[bucket];
    const auto b = static_cast<std::uint32_t>(bucket);
    if (b < h.first) h.first = b;
    if (b > h.last) h.last = b;
  }

  /// Publishes every staged delta to MetricRegistry::instance() and zeroes
  /// what it published: each histogram's touched bucket range only.
  void flush() noexcept;

 private:
  struct Histogram {
    std::int64_t sum_scaled = 0;
    std::uint64_t underflow = 0;
    /// Touched bucket range [first, last]; empty while first > last.
    std::uint32_t first = MetricRegistry::kMaxBuckets + 1;
    std::uint32_t last = 0;
    std::array<std::uint64_t, MetricRegistry::kMaxBuckets + 1> buckets{};
  };

  std::array<std::uint64_t, kCounterCount> counters_{};
  std::array<Histogram, kHistogramCount> histograms_{};
};

/// RAII wall-clock span for WRT_SPAN: observes elapsed nanoseconds into
/// HistogramId::kSpanNanos on destruction.  Cold paths only.
class ScopedSpan {
 public:
  ScopedSpan() noexcept : start_(std::chrono::steady_clock::now()) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    MetricRegistry::instance().observe(
        HistogramId::kSpanNanos,
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()));
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace wrt::telemetry
