// FederationEngine: sharded multi-ring fabric with epoch-synchronized
// gateway exchange (DESIGN.md §12).
//
// Covers construction and crossing delivery, the worker-count determinism
// contract (same (seed, K) -> same digest for any W), the three-way
// reservation brokering (source ring + backbone class + destination
// ring), conservation of crossing frames through the
// mailbox -> backbone -> ring pipeline, and the Gateway backbone mode.
//
// FederationDigest pins the digest's value on a few (seed, K) cells: the
// worker-count test holds it equal across W, which a change that alters
// the fabric the same way for every W would still pass.  Regenerating
// after a *deliberate* behaviour change:
//   WRT_DIGEST_CAPTURE=1 ./test_wrtring --gtest_filter='*FederationDigest*'
// and paste the printed cells into kFederationCells.  The digest hashes
// every crossing-delay sample, so the fixed-bucket delay histogram planned
// in ROADMAP ("Federation on the wall clock") changes every cell on
// purpose, together with the two values scripts/check.sh
// --federation-smoke pins; recapture all of them in that change.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <numbers>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "diffserv/diffserv.hpp"
#include "wrtring/federation.hpp"
#include "wrtring/gateway.hpp"

namespace wrt::wrtring {
namespace {

FederationConfig small_config() {
  FederationConfig config;
  config.shards = 2;
  config.rings = 4;
  config.stations_per_ring = 8;
  config.epoch_slots = 32;
  config.saturated_per_ring = 1;
  config.crossing_flows_per_ring = 1;
  config.crossing_rate_per_slot = 0.02;
  config.backbone_service_rate = 4.0;
  config.backbone_premium_capacity = 1.0;
  return config;
}

std::uint64_t run_digest(FederationConfig config, std::uint64_t seed,
                         std::int64_t epochs) {
  FederationEngine federation(config, seed);
  EXPECT_TRUE(federation.init().ok());
  federation.run_epochs(epochs);
  return federation.digest();
}

TEST(FederationTest, ValidatesConfig) {
  FederationConfig config = small_config();
  config.shards = 0;
  EXPECT_FALSE(config.validate().ok());
  config = small_config();
  config.stations_per_ring = 3;
  EXPECT_FALSE(config.validate().ok());
  config = small_config();
  config.rings = 1;  // crossing flows need a second ring
  EXPECT_FALSE(config.validate().ok());
  config = small_config();
  EXPECT_TRUE(config.validate().ok());
}

TEST(FederationTest, DeliversCrossingsEndToEnd) {
  FederationEngine federation(small_config(), 42);
  ASSERT_TRUE(federation.init().ok());
  federation.run_epochs(16);

  const FederationStats stats = federation.stats();
  EXPECT_GT(stats.crossings.crossings_posted, 0U);
  EXPECT_GT(stats.crossings.crossings_delivered, 0U);
  EXPECT_GT(stats.total_delivered, stats.crossings.crossings_delivered);
  // Pipeline conservation: frames only move forward through
  // posted -> received -> injected -> delivered, and nothing is lost
  // silently (the difference at each stage is in a mailbox, the backbone,
  // the pending buffer, or the destination ring).
  EXPECT_GE(stats.crossings.crossings_posted,
            stats.crossings.crossings_received);
  EXPECT_GE(stats.crossings.crossings_received,
            stats.crossings.crossings_injected);
  EXPECT_GE(stats.crossings.crossings_injected +
                stats.crossings.crossing_drops,
            stats.crossings.crossings_delivered);
  EXPECT_EQ(stats.crossings.crossing_drops, 0U);
  // Every crossing was brokered one way or the other.
  EXPECT_EQ(stats.rt_admitted + stats.rt_rejected,
            federation.ring_count() * 1U);
  EXPECT_EQ(federation.now_slots(), 16 * small_config().epoch_slots);
}

TEST(FederationTest, RecordsEndToEndRtDelay) {
  FederationConfig config = small_config();
  config.backbone_premium_capacity = 8.0;  // admit everything
  FederationEngine federation(config, 7);
  ASSERT_TRUE(federation.init().ok());
  federation.run_epochs(16);

  ASSERT_GT(federation.stats().rt_admitted, 0U);
  const std::vector<Tick> delays = federation.rt_crossing_delay_ticks();
  ASSERT_FALSE(delays.empty());
  // A crossing spans two rings and the backbone: it cannot be faster than
  // one backbone hop, and the epoch quantization means multi-epoch delays
  // are normal.
  for (const Tick delay : delays) {
    EXPECT_GT(delay, 0);
    EXPECT_LT(ticks_to_slots(delay),
              federation.now_slots());  // sane upper bound
  }
}

TEST(FederationTest, DigestInvariantUnderWorkerCount) {
  FederationConfig config = small_config();
  config.shards = 4;
  config.rings = 8;
  std::vector<std::uint64_t> digests;
  for (const std::uint32_t workers : {1U, 2U, 4U}) {
    config.worker_threads = workers;
    digests.push_back(run_digest(config, 99, 8));
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], digests[2]);
}

TEST(FederationTest, DigestRespondsToSeed) {
  const FederationConfig config = small_config();
  EXPECT_NE(run_digest(config, 1, 6), run_digest(config, 2, 6));
}

TEST(FederationTest, ZeroBackboneBudgetDemotesEveryCrossing) {
  FederationConfig config = small_config();
  config.backbone_premium_capacity = 0.0;
  FederationEngine federation(config, 5);
  ASSERT_TRUE(federation.init().ok());
  federation.run_epochs(16);

  const FederationStats stats = federation.stats();
  EXPECT_EQ(stats.rt_admitted, 0U);
  EXPECT_EQ(stats.rt_rejected, federation.ring_count());
  for (const CrossingFlow& crossing : federation.crossing_flows()) {
    EXPECT_FALSE(crossing.admitted);
  }
  // Demoted crossings still travel — as best-effort.
  EXPECT_TRUE(federation.rt_crossing_delay_ticks().empty());
  EXPECT_GT(stats.crossings.crossings_delivered, 0U);
}

TEST(FederationTest, GenerousBudgetAdmitsEveryCrossing) {
  FederationConfig config = small_config();
  config.backbone_premium_capacity = 8.0;
  FederationEngine federation(config, 5);
  ASSERT_TRUE(federation.init().ok());
  const FederationStats stats = federation.stats();
  EXPECT_EQ(stats.rt_admitted, federation.ring_count());
  EXPECT_EQ(stats.rt_rejected, 0U);
  // The brokered budget is visible on each shard's backbone segment.
  double reserved = 0.0;
  for (std::uint32_t s = 0; s < federation.shard_count(); ++s) {
    reserved += federation.shard(s).backbone().reserved_premium();
  }
  EXPECT_NEAR(reserved,
              config.crossing_rate_per_slot * federation.ring_count(), 1e-9);
}

TEST(FederationTest, ShardCountIsASemanticParameter) {
  // K is part of the run's identity (it decides backbone placement and
  // epoch interleaving); digests for different K are not expected to
  // match, but both runs must be healthy.
  FederationConfig config = small_config();
  config.shards = 1;
  FederationEngine one(config, 11);
  ASSERT_TRUE(one.init().ok());
  one.run_epochs(8);
  config.shards = 4;
  FederationEngine four(config, 11);
  ASSERT_TRUE(four.init().ok());
  four.run_epochs(8);
  EXPECT_GT(one.stats().crossings.crossings_delivered, 0U);
  EXPECT_GT(four.stats().crossings.crossings_delivered, 0U);
}

// -- Gateway backbone mode --------------------------------------------------

TEST(FederationTest, GatewayBrokersBackboneReservations) {
  FederationConfig config = small_config();
  config.crossing_flows_per_ring = 0;  // quiet fabric, we broker by hand
  config.rings = 2;
  config.shards = 1;
  FederationEngine federation(config, 3);
  ASSERT_TRUE(federation.init().ok());

  diffserv::BackboneSegment backbone(/*hops=*/2, /*service_rate=*/4.0,
                                     /*queue_capacity=*/64,
                                     /*premium_capacity=*/0.05);
  Engine& ring = federation.ring_engine(0);
  Gateway gateway(&ring, &backbone, /*gateway_station=*/0);

  const Quota before = ring.station_quota(0);
  auto granted = gateway.reserve_backbone_to_ring(/*flow=*/501, 0.04);
  ASSERT_TRUE(granted.ok());
  EXPECT_TRUE(granted.value().backbone_premium);
  EXPECT_GT(granted.value().granted_l, 0U);
  EXPECT_NEAR(backbone.reserved_premium(), 0.04, 1e-12);
  EXPECT_EQ(ring.station_quota(0).l, before.l + granted.value().granted_l);

  // Over budget: the backbone leg refuses even though the ring could.
  auto refused = gateway.reserve_backbone_to_ring(/*flow=*/502, 0.04);
  EXPECT_FALSE(refused.ok());

  // Release restores both the ring quota and the backbone budget.
  ASSERT_TRUE(gateway.release(501).ok());
  EXPECT_NEAR(backbone.reserved_premium(), 0.0, 1e-12);
  EXPECT_EQ(ring.station_quota(0).l, before.l);
}

TEST(FederationTest, GatewayReservesRingCapacityForCarrier) {
  FederationConfig config = small_config();
  config.crossing_flows_per_ring = 0;
  config.rings = 2;
  config.shards = 1;
  FederationEngine federation(config, 3);
  ASSERT_TRUE(federation.init().ok());

  diffserv::BackboneSegment backbone(2, 4.0, 64, 1.0);
  Engine& ring = federation.ring_engine(1);
  Gateway gateway(&ring, &backbone, 0);

  const NodeId carrier = 3;
  const Quota before = ring.station_quota(carrier);
  auto granted = gateway.reserve_ring_capacity(carrier, /*flow=*/601, 0.05);
  ASSERT_TRUE(granted.ok());
  EXPECT_EQ(granted.value().carrier, carrier);
  EXPECT_FALSE(granted.value().backbone_premium);
  EXPECT_EQ(ring.station_quota(carrier).l,
            before.l + granted.value().granted_l);
  // The carrier's grant, not G1's.
  EXPECT_EQ(ring.station_quota(0).l, before.l);

  ASSERT_TRUE(gateway.release(601).ok());
  EXPECT_EQ(ring.station_quota(carrier).l, before.l);
}

struct FederationCell {
  std::uint64_t seed;
  std::uint32_t shards;  // K
  std::uint64_t digest;
};

constexpr FederationCell kFederationCells[] = {
    {1, 1, 0xa1fe2d889ce27485ULL},
    {7, 2, 0x0e9f2da70fe6998cULL},
    {42, 4, 0x05a9eacfa6de01ffULL},
    {99, 2, 0x9abd47b80eb96be4ULL},
};

// Prints the cell, not its bytes (padding included), into the listed test
// name.
void PrintTo(const FederationCell& cell, std::ostream* os) {
  *os << "seed=" << cell.seed << " K=" << cell.shards;
}

class FederationDigest : public ::testing::TestWithParam<FederationCell> {};

TEST_P(FederationDigest, MatchesGoldenOracle) {
  const FederationCell& cell = GetParam();
  FederationConfig config = small_config();
  config.shards = cell.shards;
  config.worker_threads = 1;
  const std::uint64_t digest = run_digest(config, cell.seed, 16);
  if (std::getenv("WRT_DIGEST_CAPTURE") != nullptr) {
    std::printf("CAPTURE {%llu, %u, 0x%016llxULL},\n",
                static_cast<unsigned long long>(cell.seed), cell.shards,
                static_cast<unsigned long long>(digest));
    GTEST_SKIP() << "capture mode";
  }
  EXPECT_EQ(digest, cell.digest)
      << "seed=" << cell.seed << " K=" << cell.shards;
}

std::string federation_cell_name(
    const ::testing::TestParamInfo<FederationCell>& cell_info) {
  return "seed" + std::to_string(cell_info.param.seed) + "_K" +
         std::to_string(cell_info.param.shards);
}

INSTANTIATE_TEST_SUITE_P(Oracle, FederationDigest,
                         ::testing::ValuesIn(kFederationCells),
                         federation_cell_name);

}  // namespace
}  // namespace wrt::wrtring
