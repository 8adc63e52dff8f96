#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace wrt::sim {
namespace {

// Pinned moment arithmetic.  kPinned holds count, mean, variance, min, max
// and sum as hex floats, as SampleStats computed them while it still held
// its own Welford update; every collector must reproduce them bit for bit.
// Regenerating after a *deliberate* change to the arithmetic:
//   WRT_DIGEST_CAPTURE=1 ./test_sim --gtest_filter='MomentsDigest*'
// and paste the printed lines back into kPinned.
struct Pinned {
  const char* sequence;
  std::uint64_t count;
  double mean;
  double variance;
  double min;
  double max;
  double sum;
};

constexpr Pinned kPinned[] = {
    {"slot_delays", 10000, 0x1.91ff559b3d07ap+7, 0x1.9ab0d7434b211p+13,
     0x0p+0, 0x1.8fp+8, 0x1.eab82fffffffdp+20},
    {"signed_fractions", 257, 0x1.2095ed2fe0a28p+0, 0x1.72199b8bf704dp+9,
     -0x1.8477a335332f6p+5, 0x1.8f7463fab102ep+5, 0x1.21b6831d10832p+8},
    {"constant", 500, 0x1.9p+3, 0x0p+0, 0x1.9p+3, 0x1.9p+3, 0x1.86ap+12},
    {"one_sample", 1, -0x1.dp+2, 0x0p+0, -0x1.dp+2, -0x1.dp+2, -0x1.dp+2},
    {"empty", 0, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0},
};

std::vector<double> pinned_sequence(std::string_view name) {
  std::vector<double> values;
  if (name == "slot_delays") {
    // Integer slot delays, well past the 4,096-sample reservoir.
    util::RngStream rng(0xDE1A7);
    for (int i = 0; i < 10000; ++i) {
      values.push_back(static_cast<double>(rng.uniform_int(400)));
    }
  } else if (name == "signed_fractions") {
    util::RngStream rng(0x51C4);
    for (int i = 0; i < 257; ++i) values.push_back(rng.uniform(-50.0, 50.0));
  } else if (name == "constant") {
    values.assign(500, 12.5);
  } else if (name == "one_sample") {
    values.push_back(-7.25);
  }
  return values;  // "empty"
}

template <typename Stats>
Stats fed(std::string_view sequence) {
  Stats stats;
  for (const double value : pinned_sequence(sequence)) stats.add(value);
  return stats;
}

template <typename Stats>
void expect_pinned() {
  for (const Pinned& pin : kPinned) {
    const Stats s = fed<Stats>(pin.sequence);
    EXPECT_EQ(s.count(), pin.count) << pin.sequence;
    EXPECT_EQ(s.mean(), pin.mean) << pin.sequence;
    EXPECT_EQ(s.variance(), pin.variance) << pin.sequence;
    EXPECT_EQ(s.min(), pin.min) << pin.sequence;
    EXPECT_EQ(s.max(), pin.max) << pin.sequence;
    EXPECT_EQ(s.sum(), pin.sum) << pin.sequence;
  }
}

TEST(MomentsDigest, SampleStatsReproducesPinnedMoments) {
  if (std::getenv("WRT_DIGEST_CAPTURE") != nullptr) {
    for (const char* name : {"slot_delays", "signed_fractions", "constant",
                             "one_sample", "empty"}) {
      const SampleStats s = fed<SampleStats>(name);
      std::printf("CAPTURE {\"%s\", %llu, %a, %a, %a, %a, %a},\n", name,
                  static_cast<unsigned long long>(s.count()), s.mean(),
                  s.variance(), s.min(), s.max(), s.sum());
    }
    GTEST_SKIP() << "capture mode";
  }
  ASSERT_EQ(std::size(kPinned), 5u);
  expect_pinned<SampleStats>();
}

TEST(MomentsDigest, MomentsReproducesPinnedMoments) {
  expect_pinned<Moments>();
}

TEST(SampleStats, MeanAndVariance) {
  SampleStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.571428, 1e-5);  // sample variance (n-1)
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(SampleStats, EmptyIsSafe) {
  const SampleStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  // Empty extrema report 0.0, not +/-infinity: sweep cells with no samples
  // (e.g. past the voice admission cliff) must stay finite in JSON output.
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
  EXPECT_DOUBLE_EQ(s.sum(), 0.0);
}

TEST(SampleStats, EmptyQuantileIsZeroForAllQ) {
  const SampleStats s;
  for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(s.quantile(q), 0.0) << "q=" << q;
  }
}

TEST(SampleStats, SingleSample) {
  SampleStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(SampleStats, SingleSampleQuantileIsThatSample) {
  SampleStats s;
  s.add(-7.5);
  for (const double q : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    EXPECT_DOUBLE_EQ(s.quantile(q), -7.5) << "q=" << q;
  }
}

TEST(SampleStats, QuantileExactWhenSmall) {
  SampleStats s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_NEAR(s.quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(s.quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(s.quantile(0.5), 50.5, 1.0);
}

TEST(SampleStats, QuantileReservoirApproximation) {
  SampleStats s(512);
  for (int i = 0; i < 100000; ++i) s.add(static_cast<double>(i % 1000));
  EXPECT_NEAR(s.quantile(0.5), 500.0, 60.0);
}

TEST(SampleStats, QuantileRejectsBadQ) {
  SampleStats s;
  s.add(1.0);
  EXPECT_THROW((void)s.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW((void)s.quantile(1.1), std::invalid_argument);
  // Bad q is an error even when the collector is empty or degenerate; the
  // argument check runs before the size-based shortcuts.
  const SampleStats empty;
  EXPECT_THROW((void)empty.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW((void)empty.quantile(2.0), std::invalid_argument);
}

TEST(SampleStats, ResetClears) {
  SampleStats s;
  s.add(5.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(TimeWeighted, PiecewiseConstantAverage) {
  TimeWeightedStats tw;
  tw.reset(0);
  tw.update(0, 2.0);    // value 2 on [0, 10)
  tw.update(10, 6.0);   // value 6 on [10, 20)
  EXPECT_DOUBLE_EQ(tw.time_average(20), (2.0 * 10 + 6.0 * 10) / 20.0);
}

TEST(TimeWeighted, TracksMax) {
  TimeWeightedStats tw;
  tw.reset(0);
  tw.update(0, 1.0);
  tw.update(5, 9.0);
  tw.update(6, 3.0);
  EXPECT_DOUBLE_EQ(tw.max(), 9.0);
}

TEST(TimeWeighted, ZeroElapsedReturnsCurrent) {
  TimeWeightedStats tw;
  tw.reset(100);
  tw.update(100, 7.0);
  EXPECT_DOUBLE_EQ(tw.time_average(100), 7.0);
}

}  // namespace
}  // namespace wrt::sim
