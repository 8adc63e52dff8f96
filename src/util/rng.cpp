#include "util/rng.hpp"

#include <cmath>

namespace wrt::util {

std::uint64_t RngStream::uniform_int(std::uint64_t n) noexcept {
  if (n == 0) return 0;
  // Lemire's multiply-shift rejection method.
  std::uint64_t x = gen_();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = gen_();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double RngStream::exponential(double mean) noexcept {
  // Inversion; guard against log(0).
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double RngStream::normal(double mean, double stddev) noexcept {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return mean + stddev * spare_normal_;
  }
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  has_spare_normal_ = true;
  return mean + stddev * u * factor;
}

}  // namespace wrt::util
