// Statistics collectors.
//
// The experiment harnesses report means, maxima, quantiles, and
// time-weighted averages of protocol quantities (SAT rotation time, access
// delay, queue length, throughput).  Two collectors keep a sample series in
// O(1) memory over arbitrarily long runs:
//   - Moments: exact count, mean, variance, min, max and sum, updated inline
//     with no allocation.  Every per-event engine statistic (EngineStats,
//     TptStats, AlohaStats) and each flow's delay (traffic::Sink::per_flow)
//     uses it: their readers need only those moments.
//   - SampleStats: Moments plus a bounded uniform reservoir for quantiles.
//     Only the per-class delivery delay (traffic::Sink::ClassStats) keeps
//     one, because reports and benches print its p99.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "util/rng.hpp"
#include "util/types.hpp"

namespace wrt::sim {

/// Exact sample moments: count / mean / variance (Welford) / min / max /
/// sum, with no quantiles.
class Moments {
 public:
  void add(double value) noexcept {
    ++count_;
    const double delta = value - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (value - mean_);
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return count_ == 0 ? 0.0 : mean_; }
  [[nodiscard]] double variance() const noexcept {
    return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
  }
  /// Empty collectors report 0.0 (not +/-inf) so per-class tables and JSON
  /// emission stay finite when a sweep cell produced no samples — e.g. the
  /// voice admission cliff, where a class sees zero deliveries.
  [[nodiscard]] double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const noexcept { return count_ == 0 ? 0.0 : max_; }
  [[nodiscard]] double sum() const noexcept { return count_ == 0 ? 0.0 : mean_ * static_cast<double>(count_); }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Per-event collectors sit on the SAT-hop and delivery paths: no heap state.
static_assert(std::is_trivially_copyable_v<Moments>);

/// Moments plus a fixed-size uniform reservoir (Vitter's algorithm R) for
/// quantile estimates.
class SampleStats : public Moments {
 public:
  explicit SampleStats(std::size_t reservoir_capacity = 4096,
                       std::uint64_t seed = 0x5eed);

  /// Adds to the moments and offers the sample to the reservoir.
  void add(double value);

  /// Quantile in [0, 1] from the reservoir; exact when count <= capacity.
  /// Degenerate distributions are well-defined rather than caller-guarded:
  /// an empty collector returns 0.0 for every q, a single-sample collector
  /// returns that sample for every q.  q outside [0, 1] always throws.
  [[nodiscard]] double quantile(double q) const;

  void reset();

 private:
  std::vector<double> reservoir_;
  std::size_t reservoir_capacity_;
  util::RngStream rng_;
};

/// Time-weighted average of a piecewise-constant signal (queue lengths,
/// number of busy slots, ...).
class TimeWeightedStats {
 public:
  /// Records that the signal had `value` from the last update until `now`.
  void update(Tick now, double value);

  [[nodiscard]] double time_average(Tick now);
  [[nodiscard]] double current() const noexcept { return value_; }
  [[nodiscard]] double max() const noexcept { return max_; }

  void reset(Tick now);

 private:
  Tick last_update_ = 0;
  double value_ = 0.0;
  double weighted_sum_ = 0.0;
  double max_ = 0.0;
  Tick start_ = 0;
};

}  // namespace wrt::sim
