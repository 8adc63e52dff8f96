#include "telemetry/registry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "telemetry/metrics.hpp"

namespace wrt::telemetry {
namespace {

// Every test writes a block of its own, as every engine does.

TEST(RegistryTest, CountersStartAtZeroAndAccumulate) {
  MetricBlock block;
  EXPECT_EQ(block.counter(CounterId::kSatHandoffs), 0u);
  block.count(CounterId::kSatHandoffs);
  block.count(CounterId::kSatHandoffs, 41);
  EXPECT_EQ(block.counter(CounterId::kSatHandoffs), 42u);
  EXPECT_EQ(block.counter(CounterId::kSatArrivals), 0u);  // untouched slot
  EXPECT_EQ(block.snapshot().counter(CounterId::kSatHandoffs), 42u);
}

TEST(RegistryTest, SnapshotNamesEveryMetric) {
  const MetricBlock block;
  const RegistrySnapshot snap = block.snapshot();
  ASSERT_EQ(snap.counters.size(), kCounterCount);
  ASSERT_EQ(snap.histograms.size(), kHistogramCount);
  for (const auto& [name, value] : snap.counters) {
    EXPECT_NE(name, "unknown");
    EXPECT_FALSE(name.empty());
    EXPECT_EQ(value, 0u);
  }
  for (const auto& h : snap.histograms) {
    EXPECT_NE(h.name, "unknown");
    EXPECT_GT(h.layout.bucket_count, 0u);
    EXPECT_LE(h.layout.bucket_count, MetricBlock::kMaxBuckets);
    EXPECT_EQ(h.buckets.size(), h.layout.bucket_count + 1);  // + overflow
    EXPECT_EQ(h.total, 0u);
  }
}

TEST(RegistryTest, ObservePlacesValuesInLinearBuckets) {
  MetricBlock block;
  // kSatRotationSlots: 64 buckets of width 16 from 0.
  block.observe(HistogramId::kSatRotationSlots, 0.0);    // bucket 0
  block.observe(HistogramId::kSatRotationSlots, 15.9);   // bucket 0
  block.observe(HistogramId::kSatRotationSlots, 16.0);   // bucket 1
  block.observe(HistogramId::kSatRotationSlots, 100.0);  // bucket 6
  const RegistrySnapshot snap = block.snapshot();
  const auto& h = snap.histogram(HistogramId::kSatRotationSlots);
  EXPECT_EQ(h.total, 4u);
  EXPECT_EQ(h.buckets[0], 2u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[6], 1u);
  EXPECT_EQ(h.underflow, 0u);
  EXPECT_NEAR(h.mean(), (0.0 + 15.9 + 16.0 + 100.0) / 4.0, 0.01);
}

TEST(RegistryTest, ObserveRoutesUnderflowAndOverflow) {
  MetricBlock block;
  const HistogramLayout layout =
      histogram_layout(HistogramId::kQueueDepth);  // 64 x 2.0 from 0
  const double top = layout.lo +
                     layout.width * static_cast<double>(layout.bucket_count);
  block.observe(HistogramId::kQueueDepth, layout.lo - 1.0);  // underflow
  block.observe(HistogramId::kQueueDepth, top);          // first past the end
  block.observe(HistogramId::kQueueDepth, top * 100.0);  // far overflow
  const RegistrySnapshot snap = block.snapshot();
  const auto& h = snap.histogram(HistogramId::kQueueDepth);
  EXPECT_EQ(h.total, 3u);
  EXPECT_EQ(h.underflow, 1u);
  EXPECT_EQ(h.buckets[layout.bucket_count], 2u);  // overflow slot
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(RegistryTest, NonFiniteObservationsLandInTheEdgeBuckets) {
  // NaN and +inf overflow, -inf underflows, and none of them adds to the
  // sum.
  MetricBlock block;
  block.observe(HistogramId::kSatRotationSlots, kNaN);
  block.observe(HistogramId::kSatRotationSlots, -kNaN);
  block.observe(HistogramId::kSatRotationSlots, kInf);
  block.observe(HistogramId::kSatRotationSlots, -kInf);
  block.observe(HistogramId::kSatRotationSlots, 20.0);
  const RegistrySnapshot snap = block.snapshot();
  const auto& h = snap.histogram(HistogramId::kSatRotationSlots);
  EXPECT_EQ(h.total, 5u);
  EXPECT_EQ(h.underflow, 1u);
  EXPECT_EQ(h.buckets[h.layout.bucket_count], 3u);  // overflow slot
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.sum, 20.0);  // only the finite value
}

TEST(RegistryTest, HugeObservationsSaturateTheSum) {
  // A finite value past the int64 range saturates the sum of
  // kSatRotationSlots (upward) and kQueueDepth (downward) instead of
  // wrapping it, and a saturated sum stays saturated.
  MetricBlock block;
  block.observe(HistogramId::kSatRotationSlots, 1e300);
  block.observe(HistogramId::kSatRotationSlots, 1e300);
  block.observe(HistogramId::kSatRotationSlots, 1e18);
  block.observe(HistogramId::kQueueDepth, -1e300);
  block.observe(HistogramId::kQueueDepth, -1e18);
  const RegistrySnapshot snap = block.snapshot();
  const auto& up = snap.histogram(HistogramId::kSatRotationSlots);
  EXPECT_EQ(up.total, 3u);
  EXPECT_EQ(up.buckets[up.layout.bucket_count], 3u);
  EXPECT_EQ(up.sum, static_cast<double>(
                        std::numeric_limits<std::int64_t>::max()) /
                        kSumScale);
  const auto& down = snap.histogram(HistogramId::kQueueDepth);
  EXPECT_EQ(down.total, 2u);
  EXPECT_EQ(down.underflow, 2u);
  EXPECT_EQ(down.sum, static_cast<double>(
                          std::numeric_limits<std::int64_t>::min()) /
                          kSumScale);
}

TEST(RegistryTest, QuantileReturnsBucketLowerEdge) {
  MetricBlock block;
  // 90 fast rotations, 10 slow ones: p50 sits in the fast bucket, p99 in
  // the slow one.
  for (int i = 0; i < 90; ++i) {
    block.observe(HistogramId::kSatRotationSlots, 20.0);  // bucket 1 -> 16
  }
  for (int i = 0; i < 10; ++i) {
    block.observe(HistogramId::kSatRotationSlots, 200.0);  // bucket 12 -> 192
  }
  const RegistrySnapshot snap = block.snapshot();
  const auto& h = snap.histogram(HistogramId::kSatRotationSlots);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 16.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 192.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 16.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 192.0);
}

TEST(RegistryTest, QuantileOfEmptyHistogramIsZero) {
  const RegistrySnapshot snap = MetricBlock().snapshot();
  const auto& h = snap.histogram(HistogramId::kJoinLatencySlots);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

#if WRT_TELEMETRY_LEVEL

TEST(RegistryTest, MacrosHitTheRegistry) {
  // The macros write the block they name and no other.
  MetricBlock block;
  MetricBlock other;
  WRT_COUNT(block, kRapsStarted);
  WRT_COUNT_N(block, kRapsStarted, 4);
  WRT_OBSERVE(block, kSatRecSlots, 12);
  EXPECT_EQ(block.counter(CounterId::kRapsStarted), 5u);
  EXPECT_EQ(block.snapshot().histogram(HistogramId::kSatRecSlots).total, 1u);
  EXPECT_EQ(other.counter(CounterId::kRapsStarted), 0u);
}

#endif  // WRT_TELEMETRY_LEVEL

}  // namespace
}  // namespace wrt::telemetry
