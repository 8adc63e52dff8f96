#include "sim/stats.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace wrt::sim {

SampleStats::SampleStats(std::size_t reservoir_capacity, std::uint64_t seed)
    : reservoir_capacity_(reservoir_capacity), rng_(seed) {
  reservoir_.reserve(std::min<std::size_t>(reservoir_capacity_, 1024));
}

void SampleStats::add(double value) {
  Moments::add(value);
  if (reservoir_.size() < reservoir_capacity_) {
    reservoir_.push_back(value);
  } else if (reservoir_capacity_ > 0) {
    // Vitter's algorithm R.
    const auto slot = rng_.uniform_int(count());
    if (slot < reservoir_capacity_) reservoir_[slot] = value;
  }
}

double SampleStats::quantile(double q) const {
  // Validate q before the degenerate-size checks so a bad argument is
  // reported even on an empty collector.
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile q out of [0,1]");
  if (reservoir_.empty()) return 0.0;
  if (reservoir_.size() == 1) return reservoir_.front();
  std::vector<double> sorted = reservoir_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto idx = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(idx);
  if (idx + 1 >= sorted.size()) return sorted.back();
  return sorted[idx] * (1.0 - frac) + sorted[idx + 1] * frac;
}

void SampleStats::reset() {
  static_cast<Moments&>(*this) = Moments{};
  reservoir_.clear();
}

void TimeWeightedStats::update(Tick now, double value) {
  assert(now >= last_update_);
  weighted_sum_ +=
      value_ * static_cast<double>(now - last_update_);
  last_update_ = now;
  value_ = value;
  max_ = std::max(max_, value);
}

double TimeWeightedStats::time_average(Tick now) {
  update(now, value_);  // flush the current segment
  const Tick elapsed = now - start_;
  return elapsed == 0 ? value_ : weighted_sum_ / static_cast<double>(elapsed);
}

void TimeWeightedStats::reset(Tick now) {
  last_update_ = now;
  start_ = now;
  weighted_sum_ = 0.0;
  max_ = 0.0;
}

}  // namespace wrt::sim
