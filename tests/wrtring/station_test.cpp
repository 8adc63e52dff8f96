#include <gtest/gtest.h>

#include "wrtring/soa_kernel.hpp"

namespace wrt::wrtring {
namespace {

traffic::Packet make_packet(TrafficClass cls) {
  traffic::Packet p;
  p.cls = cls;
  p.src = 0;
  p.dst = 1;
  return p;
}

// The Send and SAT algorithms of Section 2.2 are SlotKernel methods by ring
// position; these tests drive a one-station kernel, whose station sits at
// position 0.
SlotKernel one_station(Quota quota, std::uint32_t k1 = 0,
                       std::size_t capacity = 16) {
  SlotKernel kernel;
  kernel.configure(capacity);
  kernel.insert_station(0, 0, quota, k1, 0);
  return kernel;
}

TEST(SendAlgorithm, RealTimeUpToQuota) {
  SlotKernel s = one_station({2, 1});
  for (int i = 0; i < 5; ++i) {
    s.enqueue(0, make_packet(TrafficClass::kRealTime));
  }
  // Rule 1: RT while RT_PCK < l.
  ASSERT_EQ(s.eligible_class(0), TrafficClass::kRealTime);
  s.take_for_transmit(0, TrafficClass::kRealTime);
  ASSERT_EQ(s.eligible_class(0), TrafficClass::kRealTime);
  s.take_for_transmit(0, TrafficClass::kRealTime);
  // Quota exhausted, only RT queued: nothing eligible.
  EXPECT_EQ(s.eligible_class(0), std::nullopt);
  EXPECT_EQ(s.rt_pck(0), 2u);
}

TEST(SendAlgorithm, NonRtGatedByRtQueue) {
  SlotKernel s = one_station({2, 2});
  s.enqueue(0, make_packet(TrafficClass::kRealTime));
  s.enqueue(0, make_packet(TrafficClass::kBestEffort));
  // Rule 2: BE only if RT queue empty or RT_PCK == l.  RT is pending and
  // quota not exhausted -> RT first.
  ASSERT_EQ(s.eligible_class(0), TrafficClass::kRealTime);
  s.take_for_transmit(0, TrafficClass::kRealTime);
  // RT queue now empty -> BE allowed.
  EXPECT_EQ(s.eligible_class(0), TrafficClass::kBestEffort);
}

TEST(SendAlgorithm, NonRtAllowedWhenRtQuotaExhausted) {
  SlotKernel s = one_station({1, 1});
  s.enqueue(0, make_packet(TrafficClass::kRealTime));
  s.enqueue(0, make_packet(TrafficClass::kRealTime));
  s.enqueue(0, make_packet(TrafficClass::kBestEffort));
  s.take_for_transmit(0, TrafficClass::kRealTime);
  // RT backlog remains but RT_PCK == l: rule 2 admits non-RT.
  EXPECT_EQ(s.eligible_class(0), TrafficClass::kBestEffort);
}

TEST(SendAlgorithm, NonRtQuotaCaps) {
  SlotKernel s = one_station({1, 2});
  for (int i = 0; i < 4; ++i) {
    s.enqueue(0, make_packet(TrafficClass::kBestEffort));
  }
  s.take_for_transmit(0, TrafficClass::kBestEffort);
  s.take_for_transmit(0, TrafficClass::kBestEffort);
  EXPECT_EQ(s.eligible_class(0), std::nullopt);
  EXPECT_EQ(s.nrt_pck(0), 2u);
}

TEST(SendAlgorithm, AssuredBeforeBestEffort) {
  SlotKernel s = one_station({1, 2});
  s.enqueue(0, make_packet(TrafficClass::kBestEffort));
  s.enqueue(0, make_packet(TrafficClass::kAssured));
  EXPECT_EQ(s.eligible_class(0), TrafficClass::kAssured);
}

TEST(SendAlgorithm, DiffservSplitReservesK1) {
  // k = 3 split as k1 = 2 (assured) + k2 = 1 (BE).
  SlotKernel s = one_station({0, 3}, 2);
  for (int i = 0; i < 3; ++i) {
    s.enqueue(0, make_packet(TrafficClass::kBestEffort));
  }
  // BE may use only k2 = 1 even though assured queue is empty.
  ASSERT_EQ(s.eligible_class(0), TrafficClass::kBestEffort);
  s.take_for_transmit(0, TrafficClass::kBestEffort);
  EXPECT_EQ(s.eligible_class(0), std::nullopt);
}

TEST(SendAlgorithm, DiffservSplitCapsAssured) {
  SlotKernel s = one_station({0, 3}, 2);
  for (int i = 0; i < 3; ++i) {
    s.enqueue(0, make_packet(TrafficClass::kAssured));
  }
  s.take_for_transmit(0, TrafficClass::kAssured);
  ASSERT_EQ(s.eligible_class(0), TrafficClass::kAssured);
  s.take_for_transmit(0, TrafficClass::kAssured);
  // k1 = 2 exhausted; assured cannot eat into k2.
  EXPECT_EQ(s.eligible_class(0), std::nullopt);
}

TEST(SendAlgorithm, SplitZeroMeansSharedK) {
  SlotKernel s = one_station({0, 2}, 0);
  s.enqueue(0, make_packet(TrafficClass::kAssured));
  s.enqueue(0, make_packet(TrafficClass::kBestEffort));
  s.take_for_transmit(0, TrafficClass::kAssured);
  EXPECT_EQ(s.eligible_class(0), TrafficClass::kBestEffort);
}

TEST(SatAlgorithm, SatisfiedWhenRtQueueEmpty) {
  SlotKernel s = one_station({2, 1});
  EXPECT_TRUE(s.satisfied(0));
  s.enqueue(0, make_packet(TrafficClass::kBestEffort));
  EXPECT_TRUE(s.satisfied(0));  // BE backlog does not hold the SAT
}

TEST(SatAlgorithm, NotSatisfiedWithRtBacklog) {
  SlotKernel s = one_station({2, 1});
  s.enqueue(0, make_packet(TrafficClass::kRealTime));
  EXPECT_FALSE(s.satisfied(0));
}

TEST(SatAlgorithm, SatisfiedAfterQuotaTransmitted) {
  SlotKernel s = one_station({1, 1});
  s.enqueue(0, make_packet(TrafficClass::kRealTime));
  s.enqueue(0, make_packet(TrafficClass::kRealTime));
  s.take_for_transmit(0, TrafficClass::kRealTime);
  // Backlog remains but RT_PCK == l -> satisfied.
  EXPECT_TRUE(s.satisfied(0));
}

TEST(SatAlgorithm, ReleaseClearsCounters) {
  SlotKernel s = one_station({1, 1});
  s.enqueue(0, make_packet(TrafficClass::kRealTime));
  s.enqueue(0, make_packet(TrafficClass::kBestEffort));
  s.take_for_transmit(0, TrafficClass::kRealTime);
  s.take_for_transmit(0, TrafficClass::kBestEffort);
  EXPECT_EQ(s.rt_pck(0), 1u);
  EXPECT_EQ(s.nrt_pck(0), 1u);
  s.on_sat_release(0);
  EXPECT_EQ(s.rt_pck(0), 0u);
  EXPECT_EQ(s.nrt_pck(0), 0u);
}

TEST(StationQueues, CapacityDrops) {
  SlotKernel s = one_station({1, 1}, 0, 2);
  EXPECT_TRUE(s.enqueue(0, make_packet(TrafficClass::kRealTime)));
  EXPECT_TRUE(s.enqueue(0, make_packet(TrafficClass::kRealTime)));
  EXPECT_FALSE(s.enqueue(0, make_packet(TrafficClass::kRealTime)));
  EXPECT_EQ(s.drops(0), 1u);
  // Other class queues are independent.
  EXPECT_TRUE(s.enqueue(0, make_packet(TrafficClass::kBestEffort)));
}

TEST(StationQueues, DepthAndPeek) {
  SlotKernel s = one_station({1, 1});
  EXPECT_EQ(s.queue_depth(0, TrafficClass::kRealTime), 0u);
  s.enqueue(0, make_packet(TrafficClass::kRealTime));
  EXPECT_EQ(s.queue_depth(0, TrafficClass::kRealTime), 1u);
  EXPECT_EQ(s.queue_depth(0, TrafficClass::kBestEffort), 0u);
}

TEST(StationQueues, FifoWithinClass) {
  SlotKernel s = one_station({3, 0});
  for (std::uint64_t i = 0; i < 3; ++i) {
    traffic::Packet p = make_packet(TrafficClass::kRealTime);
    p.sequence = i;
    s.enqueue(0, std::move(p));
  }
  EXPECT_EQ(s.take_for_transmit(0, TrafficClass::kRealTime).sequence, 0u);
  EXPECT_EQ(s.take_for_transmit(0, TrafficClass::kRealTime).sequence, 1u);
  EXPECT_EQ(s.take_for_transmit(0, TrafficClass::kRealTime).sequence, 2u);
}

TEST(StationQueues, QuotaUpdate) {
  SlotKernel s = one_station({1, 1});
  s.set_quota(0, {4, 2});
  EXPECT_EQ(s.quotas()[0], (Quota{4, 2}));
}

TEST(StationQueues, ShrinkingQuotaClampsCounters) {
  // Regression (found by the invariant monkey): shrinking the quota below
  // the round's already-transmitted count must not strand the station in a
  // never-satisfied state where it would seize the SAT forever.
  SlotKernel s = one_station({3, 2});
  for (int i = 0; i < 5; ++i) {
    s.enqueue(0, make_packet(TrafficClass::kRealTime));
  }
  s.enqueue(0, make_packet(TrafficClass::kBestEffort));
  s.take_for_transmit(0, TrafficClass::kRealTime);
  s.take_for_transmit(0, TrafficClass::kRealTime);
  s.take_for_transmit(0, TrafficClass::kRealTime);  // RT_PCK = 3
  s.set_quota(0, {1, 2});
  EXPECT_EQ(s.rt_pck(0), 1u);
  EXPECT_TRUE(s.satisfied(0));  // RT_PCK == l, backlog or not
  EXPECT_EQ(s.eligible_class(0), TrafficClass::kBestEffort);
}

TEST(StationQueues, ShrinkingKClampsSplit) {
  SlotKernel s = one_station({1, 4}, 3, 16);
  s.set_quota(0, {1, 2});
  EXPECT_EQ(s.k1_assured(0), 2u);
}

// Invariant sweep: a station can never authorize more than l + k packets
// between SAT releases (Section 2.2: "a station cannot transmit more than
// l + k packets" per round).
class QuotaSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(QuotaSweep, NeverExceedsLPlusK) {
  const auto [l, k] = GetParam();
  SlotKernel s = one_station(
      {static_cast<std::uint32_t>(l), static_cast<std::uint32_t>(k)});
  for (int i = 0; i < 3 * (l + k) + 4; ++i) {
    s.enqueue(0, make_packet(i % 2 == 0 ? TrafficClass::kRealTime
                                        : TrafficClass::kBestEffort));
  }
  int transmitted = 0;
  while (const auto cls = s.eligible_class(0)) {
    s.take_for_transmit(0, *cls);
    ++transmitted;
    ASSERT_LE(transmitted, l + k);
  }
  EXPECT_LE(transmitted, l + k);
  // After a release, a fresh round begins.
  s.on_sat_release(0);
  EXPECT_NE(s.eligible_class(0), std::nullopt);
}

INSTANTIATE_TEST_SUITE_P(
    Quotas, QuotaSweep,
    ::testing::Combine(::testing::Values(1, 2, 5), ::testing::Values(0, 1, 4)));

}  // namespace
}  // namespace wrt::wrtring
