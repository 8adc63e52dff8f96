#include "telemetry/registry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "telemetry/metrics.hpp"

namespace wrt::telemetry {
namespace {

// The registry is process-global; every test starts from zero so ordering
// between tests (and the journal/exporter suites in this binary) never leaks.
class RegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { MetricRegistry::instance().reset(); }
};

TEST_F(RegistryTest, CountersStartAtZeroAndAccumulate) {
  auto& reg = MetricRegistry::instance();
  EXPECT_EQ(reg.counter(CounterId::kSatHandoffs), 0u);
  reg.count(CounterId::kSatHandoffs);
  reg.count(CounterId::kSatHandoffs, 41);
  EXPECT_EQ(reg.counter(CounterId::kSatHandoffs), 42u);
  EXPECT_EQ(reg.counter(CounterId::kSatArrivals), 0u);  // untouched slot
}

TEST_F(RegistryTest, ResetZeroesEverything) {
  auto& reg = MetricRegistry::instance();
  reg.count(CounterId::kDeliveries, 7);
  reg.observe(HistogramId::kQueueDepth, 3.0);
  reg.reset();
  EXPECT_EQ(reg.counter(CounterId::kDeliveries), 0u);
  const RegistrySnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.histogram(HistogramId::kQueueDepth).total, 0u);
  EXPECT_DOUBLE_EQ(snap.histogram(HistogramId::kQueueDepth).sum, 0.0);
}

TEST_F(RegistryTest, SnapshotNamesEveryMetric) {
  const RegistrySnapshot snap = MetricRegistry::instance().snapshot();
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
    EXPECT_LE(h.layout.bucket_count, MetricRegistry::kMaxBuckets);
    EXPECT_EQ(h.buckets.size(), h.layout.bucket_count + 1);  // + overflow
  }
}

TEST_F(RegistryTest, ObservePlacesValuesInLinearBuckets) {
  auto& reg = MetricRegistry::instance();
  // kSatRotationSlots: 64 buckets of width 16 from 0.
  reg.observe(HistogramId::kSatRotationSlots, 0.0);    // bucket 0
  reg.observe(HistogramId::kSatRotationSlots, 15.9);   // bucket 0
  reg.observe(HistogramId::kSatRotationSlots, 16.0);   // bucket 1
  reg.observe(HistogramId::kSatRotationSlots, 100.0);  // bucket 6
  const RegistrySnapshot snap = reg.snapshot();
  const auto& h = snap.histogram(HistogramId::kSatRotationSlots);
  EXPECT_EQ(h.total, 4u);
  EXPECT_EQ(h.buckets[0], 2u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[6], 1u);
  EXPECT_EQ(h.underflow, 0u);
  EXPECT_NEAR(h.mean(), (0.0 + 15.9 + 16.0 + 100.0) / 4.0, 0.01);
}

TEST_F(RegistryTest, ObserveRoutesUnderflowAndOverflow) {
  auto& reg = MetricRegistry::instance();
  const HistogramLayout layout =
      histogram_layout(HistogramId::kQueueDepth);  // 64 x 2.0 from 0
  const double top = layout.lo +
                     layout.width * static_cast<double>(layout.bucket_count);
  reg.observe(HistogramId::kQueueDepth, layout.lo - 1.0);  // underflow
  reg.observe(HistogramId::kQueueDepth, top);              // first past the end
  reg.observe(HistogramId::kQueueDepth, top * 100.0);      // far overflow
  const RegistrySnapshot snap = reg.snapshot();
  const auto& h = snap.histogram(HistogramId::kQueueDepth);
  EXPECT_EQ(h.total, 3u);
  EXPECT_EQ(h.underflow, 1u);
  EXPECT_EQ(h.buckets[layout.bucket_count], 2u);  // overflow slot
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kSumMax =
    static_cast<double>(std::numeric_limits<std::int64_t>::max()) / kSumScale;
constexpr double kSumMin =
    static_cast<double>(std::numeric_limits<std::int64_t>::min()) / kSumScale;

/// Checks the edge-bucket and sum rules for non-finite values on the
/// histogram `observe` fed: NaN and +inf overflow, -inf underflows, and
/// none of them adds to the sum.
void expect_non_finite_placement() {
  const RegistrySnapshot snap = MetricRegistry::instance().snapshot();
  const auto& h = snap.histogram(HistogramId::kSatRotationSlots);
  EXPECT_EQ(h.total, 5u);
  EXPECT_EQ(h.underflow, 1u);
  EXPECT_EQ(h.buckets[h.layout.bucket_count], 3u);  // overflow slot
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.sum, 20.0);  // only the finite value
}

/// Checks that a finite value past the int64 range saturates the sum of
/// kSatRotationSlots (upward) and kQueueDepth (downward) instead of
/// wrapping it.
void expect_saturated_sums() {
  const RegistrySnapshot snap = MetricRegistry::instance().snapshot();
  const auto& up = snap.histogram(HistogramId::kSatRotationSlots);
  EXPECT_EQ(up.total, 3u);
  EXPECT_EQ(up.buckets[up.layout.bucket_count], 3u);
  EXPECT_EQ(up.sum, kSumMax);
  const auto& down = snap.histogram(HistogramId::kQueueDepth);
  EXPECT_EQ(down.total, 2u);
  EXPECT_EQ(down.underflow, 2u);
  EXPECT_EQ(down.sum, kSumMin);
}

TEST_F(RegistryTest, NonFiniteObservationsLandInTheEdgeBuckets) {
  auto& reg = MetricRegistry::instance();
  reg.observe(HistogramId::kSatRotationSlots, kNaN);
  reg.observe(HistogramId::kSatRotationSlots, -kNaN);
  reg.observe(HistogramId::kSatRotationSlots, kInf);
  reg.observe(HistogramId::kSatRotationSlots, -kInf);
  reg.observe(HistogramId::kSatRotationSlots, 20.0);
  expect_non_finite_placement();
}

TEST_F(RegistryTest, BatchedNonFiniteObservationsLandInTheEdgeBuckets) {
  TelemetryBatch batch;
  batch.observe(HistogramId::kSatRotationSlots, kNaN);
  batch.observe(HistogramId::kSatRotationSlots, -kNaN);
  batch.observe(HistogramId::kSatRotationSlots, kInf);
  batch.observe(HistogramId::kSatRotationSlots, -kInf);
  batch.observe(HistogramId::kSatRotationSlots, 20.0);
  batch.flush();
  expect_non_finite_placement();
}

TEST_F(RegistryTest, HugeObservationsSaturateTheSum) {
  auto& reg = MetricRegistry::instance();
  reg.observe(HistogramId::kSatRotationSlots, 1e300);
  reg.observe(HistogramId::kSatRotationSlots, 1e300);
  reg.observe(HistogramId::kSatRotationSlots, 1e18);
  reg.observe(HistogramId::kQueueDepth, -1e300);
  reg.observe(HistogramId::kQueueDepth, -1e18);
  expect_saturated_sums();
}

TEST_F(RegistryTest, BatchedHugeObservationsSaturateTheSum) {
  // Both the staged sum and the registry's merge saturate: the two flushes
  // each carry a saturated delta.
  TelemetryBatch batch;
  batch.observe(HistogramId::kSatRotationSlots, 1e300);
  batch.observe(HistogramId::kSatRotationSlots, 1e300);
  batch.observe(HistogramId::kQueueDepth, -1e300);
  batch.flush();
  batch.observe(HistogramId::kSatRotationSlots, 1e18);
  batch.observe(HistogramId::kQueueDepth, -1e18);
  batch.flush();
  expect_saturated_sums();
}

TEST_F(RegistryTest, BatchFlushPublishesTheTouchedBucketsOnce) {
  // kSatRotationSlots: 64 buckets of width 16 from 0.
  TelemetryBatch batch;
  batch.observe(HistogramId::kSatRotationSlots, 170.0);  // bucket 10
  batch.observe(HistogramId::kSatRotationSlots, 50.0);   // bucket 3
  batch.observe(HistogramId::kSatRotationSlots, 52.0);   // bucket 3
  batch.flush();
  batch.flush();  // nothing staged: publishes nothing
  batch.observe(HistogramId::kSatRotationSlots, 90.0);   // bucket 5
  batch.observe(HistogramId::kQueueDepth, -1.0);         // underflow only
  batch.flush();
  const RegistrySnapshot snap = MetricRegistry::instance().snapshot();
  const auto& h = snap.histogram(HistogramId::kSatRotationSlots);
  EXPECT_EQ(h.total, 4u);
  for (std::size_t b = 0; b < h.buckets.size(); ++b) {
    const std::uint64_t want = b == 3 ? 2u : (b == 5 || b == 10) ? 1u : 0u;
    EXPECT_EQ(h.buckets[b], want) << "bucket " << b;
  }
  EXPECT_EQ(h.sum, 170.0 + 50.0 + 52.0 + 90.0);
  const auto& depth = snap.histogram(HistogramId::kQueueDepth);
  EXPECT_EQ(depth.total, 1u);
  EXPECT_EQ(depth.underflow, 1u);
  EXPECT_EQ(depth.sum, -1.0);
}

TEST_F(RegistryTest, QuantileReturnsBucketLowerEdge) {
  auto& reg = MetricRegistry::instance();
  // 90 fast rotations, 10 slow ones: p50 sits in the fast bucket, p99 in
  // the slow one.
  for (int i = 0; i < 90; ++i) {
    reg.observe(HistogramId::kSatRotationSlots, 20.0);  // bucket 1 -> edge 16
  }
  for (int i = 0; i < 10; ++i) {
    reg.observe(HistogramId::kSatRotationSlots, 200.0);  // bucket 12 -> 192
  }
  const RegistrySnapshot snap = reg.snapshot();
  const auto& h = snap.histogram(HistogramId::kSatRotationSlots);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 16.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 192.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 16.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 192.0);
}

TEST_F(RegistryTest, QuantileOfEmptyHistogramIsZero) {
  const RegistrySnapshot snap = MetricRegistry::instance().snapshot();
  const auto& h = snap.histogram(HistogramId::kJoinLatencySlots);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST_F(RegistryTest, ConcurrentCountsAreLossless) {
  // The monitoring contract: totals are exact once writers quiesce, even
  // with every thread hammering the same counter and histogram.
  auto& reg = MetricRegistry::instance();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg] {
      for (int i = 0; i < kPerThread; ++i) {
        reg.count(CounterId::kSlotsStepped);
        reg.observe(HistogramId::kQueueDepth, 1.0);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(reg.counter(CounterId::kSlotsStepped),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(reg.snapshot().histogram(HistogramId::kQueueDepth).total,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

#if WRT_TELEMETRY_LEVEL

TEST_F(RegistryTest, MacrosHitTheRegistry) {
  WRT_COUNT(kRapsStarted);
  WRT_COUNT_N(kRapsStarted, 4);
  WRT_OBSERVE(kSatRecSlots, 12);
  auto& reg = MetricRegistry::instance();
  EXPECT_EQ(reg.counter(CounterId::kRapsStarted), 5u);
  EXPECT_EQ(reg.snapshot().histogram(HistogramId::kSatRecSlots).total, 1u);
}

TEST_F(RegistryTest, ScopedSpanObservesWallClock) {
  { WRT_SPAN(); }
  { ScopedSpan span; }
  const RegistrySnapshot snap = MetricRegistry::instance().snapshot();
  EXPECT_EQ(snap.histogram(HistogramId::kSpanNanos).total, 2u);
}

#endif  // WRT_TELEMETRY_LEVEL

}  // namespace
}  // namespace wrt::telemetry
