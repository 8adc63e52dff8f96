#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace wrt::util {
namespace {

TEST(Xoshiro256, DeterministicForSameSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Xoshiro256, StreamsDecorrelate) {
  Xoshiro256 a(7, 0), b(7, 1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngStream, UniformInUnitInterval) {
  RngStream rng(123);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngStream, UniformMeanNearHalf) {
  RngStream rng(99);
  double sum = 0.0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

TEST(RngStream, UniformIntRespectsBound) {
  RngStream rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_int(std::uint64_t{7}), 7u);
  }
}

TEST(RngStream, UniformIntZeroIsZero) {
  RngStream rng(5);
  EXPECT_EQ(rng.uniform_int(std::uint64_t{0}), 0u);
}

TEST(RngStream, UniformIntCoversRange) {
  RngStream rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(std::uint64_t{5}));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngStream, UniformIntInclusiveRange) {
  RngStream rng(18);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngStream, ExponentialMeanMatches) {
  RngStream rng(31);
  double sum = 0.0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) sum += rng.exponential(10.0);
  EXPECT_NEAR(sum / kSamples, 10.0, 0.2);
}

TEST(RngStream, ExponentialNonNegative) {
  RngStream rng(32);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.exponential(3.0), 0.0);
}

TEST(RngStream, NormalMoments) {
  RngStream rng(57);
  double sum = 0.0, sq = 0.0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kSamples;
  const double var = sq / kSamples - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(RngStream, BernoulliProbability) {
  RngStream rng(81);
  int hits = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.3, 0.01);
}

TEST(RngStream, ShufflePreservesElements) {
  RngStream rng(101);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngStream, ShuffleChangesOrder) {
  RngStream rng(103);
  std::vector<int> v(64);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<int>(i);
  const std::vector<int> orig = v;
  rng.shuffle(v);
  EXPECT_NE(v, orig);
}

TEST(Splitmix64, SequenceIsDeterministic) {
  std::uint64_t s1 = 99, s2 = 99;
  for (int i = 0; i < 16; ++i) EXPECT_EQ(splitmix64(s1), splitmix64(s2));
}

}  // namespace
}  // namespace wrt::util
