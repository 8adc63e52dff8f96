// Federation determinism under real worker threads (DESIGN.md §12).
//
// The contract: for a fixed (seed, shard count K) the federation digest is
// bit-identical for ANY worker-thread count W — the shard partition is the
// semantic parameter, threads are pure execution.  This test runs the same
// 8-shard scenario at W ∈ {1, 2, 8} and compares digests; under
// `scripts/check.sh --tsan` (which builds and runs this whole binary) it
// doubles as the race probe for the mailbox double-buffering and the
// epoch barrier: workers post/drain mailbox halves and count into their
// rings' telemetry blocks while the coordinator owns the flips.
//
// It also pins telemetry exactness at federation scale: after the workers
// have joined, every ring's slot and delivery counters equal its own
// clock and sink.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/registry.hpp"
#include "wrtring/federation.hpp"

namespace wrt::wrtring {
namespace {

FederationConfig eight_shard_config() {
  FederationConfig config;
  config.shards = 8;
  config.rings = 16;
  config.stations_per_ring = 8;
  config.epoch_slots = 16;
  config.saturated_per_ring = 2;
  config.crossing_flows_per_ring = 1;
  config.crossing_rate_per_slot = 0.02;
  config.backbone_premium_capacity = 2.0;
  return config;
}

TEST(FederationDeterminismTest, DigestIdenticalForWorkerCounts128) {
  constexpr std::uint64_t kSeed = 20260807;
  constexpr std::int64_t kEpochs = 8;
  std::vector<std::uint64_t> digests;
  std::vector<std::uint64_t> delivered;
  for (const std::uint32_t workers : {1U, 2U, 8U}) {
    FederationConfig config = eight_shard_config();
    config.worker_threads = workers;
    FederationEngine federation(config, kSeed);
    ASSERT_TRUE(federation.init().ok());
    federation.run_epochs(kEpochs);
    digests.push_back(federation.digest());
    delivered.push_back(federation.stats().total_delivered);
    EXPECT_GT(federation.stats().crossings.crossings_delivered, 0U);
  }
  EXPECT_EQ(digests[0], digests[1]) << "W=1 vs W=2";
  EXPECT_EQ(digests[0], digests[2]) << "W=1 vs W=8";
  EXPECT_EQ(delivered[0], delivered[1]);
  EXPECT_EQ(delivered[0], delivered[2]);
}

TEST(FederationDeterminismTest, RegistryCountsExactAfterJoin) {
  if (!telemetry::kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  FederationConfig config = eight_shard_config();
  config.worker_threads = 8;
  FederationEngine federation(config, 7);
  ASSERT_TRUE(federation.init().ok());
  federation.run_epochs(8);

  // Each ring's block was written only by its shard's worker; once the
  // workers have joined it is exact.
  for (std::uint32_t r = 0; r < federation.ring_count(); ++r) {
    const Engine& ring = federation.ring_engine(r);
    const telemetry::MetricBlock& block = ring.telemetry();
    EXPECT_EQ(block.counter(telemetry::CounterId::kSlotsStepped),
              static_cast<std::uint64_t>(ring.now_slots()))
        << "ring " << r;
    EXPECT_EQ(block.counter(telemetry::CounterId::kDeliveries),
              ring.stats().sink.total_delivered())
        << "ring " << r;
    EXPECT_GT(block.counter(telemetry::CounterId::kDeliveries), 0U)
        << "ring " << r;
  }
}

TEST(FederationDeterminismTest, RepeatedRunsAreBitIdentical) {
  FederationConfig config = eight_shard_config();
  config.worker_threads = 8;
  std::uint64_t first = 0;
  for (int repetition = 0; repetition < 2; ++repetition) {
    FederationEngine federation(config, 31337);
    ASSERT_TRUE(federation.init().ok());
    federation.run_epochs(6);
    if (repetition == 0) {
      first = federation.digest();
    } else {
      EXPECT_EQ(federation.digest(), first);
    }
  }
}

}  // namespace
}  // namespace wrt::wrtring
