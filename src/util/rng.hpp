// Deterministic random number generation.
//
// Every stochastic entity in the simulator (traffic generator, mobility
// model, failure injector, ...) owns an independent stream derived from
// (master seed, entity id).  Identical seeds reproduce identical simulation
// runs bit-for-bit, which keeps property tests and regression benches stable
// and lets replications run on parallel threads with no shared state.
#pragma once

#include <array>
#include <cstdint>

namespace wrt::util {

/// SplitMix64: used to expand a (seed, stream) pair into xoshiro state.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Per-ring seed: `seed` mixed through splitmix64 with a stable key of the
/// ring (a federation ring's global index, a coordinator ring's smallest
/// member), so each ring's stream is independent and does not depend on
/// the order in which rings are built.  Distinct keys give distinct seeds.
[[nodiscard]] constexpr std::uint64_t mix_seed(std::uint64_t seed,
                                               std::uint64_t key) noexcept {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (key + 1ULL));
  return splitmix64(state);
}

/// xoshiro256** by Blackman & Vigna: fast, high-quality, 2^256-1 period.
/// Satisfies std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the generator from a master seed and a stream id so that
  /// different entities get decorrelated streams.
  explicit Xoshiro256(std::uint64_t seed, std::uint64_t stream = 0) noexcept {
    std::uint64_t sm = seed ^ (0xd1b54a32d192ed03ULL * (stream + 1));
    for (auto& word : state_) word = splitmix64(sm);
  }

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return ~std::uint64_t{0};
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

 private:
  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x,
                                                    int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Convenience wrapper bundling a generator with the distributions the
/// simulator actually uses.  Distribution algorithms are implemented here
/// (not via <random> classes) so results are identical across standard
/// library implementations.
class RngStream {
 public:
  explicit RngStream(std::uint64_t seed, std::uint64_t stream = 0) noexcept
      : gen_(seed, stream) {}

  /// Uniform in [0, 1).
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>(gen_() >> 11) * 0x1.0p-53;
  }

  /// Uniform real in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n) using Lemire's unbiased method.
  [[nodiscard]] std::uint64_t uniform_int(std::uint64_t n) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo,
                                         std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    uniform_int(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Bernoulli trial.
  [[nodiscard]] bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Exponential with the given mean (> 0).
  [[nodiscard]] double exponential(double mean) noexcept;

  /// Standard normal via Marsaglia polar method.
  [[nodiscard]] double normal(double mean = 0.0, double stddev = 1.0) noexcept;

  /// Raw 64 random bits.
  [[nodiscard]] std::uint64_t bits() noexcept { return gen_(); }

  /// Fisher-Yates shuffle.
  template <typename Container>
  void shuffle(Container& c) noexcept {
    const auto n = c.size();
    for (std::size_t i = n; i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(i));
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

 private:
  Xoshiro256 gen_;
  bool has_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace wrt::util
