#include "diffserv/diffserv.hpp"

#include <gtest/gtest.h>

namespace wrt::diffserv {
namespace {

traffic::Packet make_packet(TrafficClass cls, Tick created = 0) {
  traffic::Packet p;
  p.cls = cls;
  p.created = created;
  p.src = 0;
  p.dst = 1;
  return p;
}

TEST(TokenBucket, StartsFull) {
  TokenBucket bucket(0.1, 3.0);
  EXPECT_TRUE(bucket.conforms(0));
  EXPECT_TRUE(bucket.conforms(0));
  EXPECT_TRUE(bucket.conforms(0));
  EXPECT_FALSE(bucket.conforms(0));
}

TEST(TokenBucket, RefillsAtRate) {
  TokenBucket bucket(0.5, 1.0);
  EXPECT_TRUE(bucket.conforms(0));
  EXPECT_FALSE(bucket.conforms(0));
  // After 2 slots at 0.5 tokens/slot, one token is back.
  EXPECT_TRUE(bucket.conforms(slots_to_ticks(2)));
  EXPECT_FALSE(bucket.conforms(slots_to_ticks(2)));
}

TEST(TokenBucket, BurstCapsAccumulation) {
  TokenBucket bucket(1.0, 2.0);
  EXPECT_DOUBLE_EQ(bucket.tokens(slots_to_ticks(1000)), 2.0);
}

TEST(EdgeConditioner, PremiumInProfilePasses) {
  EdgePolicy policy;
  policy.premium_rate = 1.0;
  policy.premium_burst = 4.0;
  EdgeConditioner edge(policy);
  const auto cls = edge.condition(make_packet(TrafficClass::kRealTime), 0);
  ASSERT_TRUE(cls.has_value());
  EXPECT_EQ(*cls, TrafficClass::kRealTime);
}

TEST(EdgeConditioner, PremiumOutOfProfileDropped) {
  EdgePolicy policy;
  policy.premium_rate = 0.01;
  policy.premium_burst = 1.0;
  EdgeConditioner edge(policy);
  EXPECT_TRUE(edge.condition(make_packet(TrafficClass::kRealTime), 0)
                  .has_value());
  EXPECT_FALSE(edge.condition(make_packet(TrafficClass::kRealTime), 0)
                   .has_value());
  EXPECT_EQ(edge.premium_drops(), 1u);
}

TEST(EdgeConditioner, AssuredOutOfProfileDemoted) {
  EdgePolicy policy;
  policy.assured_rate = 0.01;
  policy.assured_burst = 1.0;
  EdgeConditioner edge(policy);
  EXPECT_EQ(*edge.condition(make_packet(TrafficClass::kAssured), 0),
            TrafficClass::kAssured);
  EXPECT_EQ(*edge.condition(make_packet(TrafficClass::kAssured), 0),
            TrafficClass::kBestEffort);
  EXPECT_EQ(edge.assured_demotions(), 1u);
}

TEST(EdgeConditioner, BestEffortAlwaysPasses) {
  EdgeConditioner edge(EdgePolicy{});
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(*edge.condition(make_packet(TrafficClass::kBestEffort), 0),
              TrafficClass::kBestEffort);
  }
}

TEST(PriorityLink, StrictPriorityOrder) {
  PriorityLink link(1.0, 100);
  link.enqueue(make_packet(TrafficClass::kBestEffort));
  link.enqueue(make_packet(TrafficClass::kAssured));
  link.enqueue(make_packet(TrafficClass::kRealTime));
  std::vector<traffic::Packet> served;
  link.step(served);
  ASSERT_EQ(served.size(), 1u);
  EXPECT_EQ(served[0].cls, TrafficClass::kRealTime);
  served.clear();
  link.step(served);
  ASSERT_EQ(served.size(), 1u);
  EXPECT_EQ(served[0].cls, TrafficClass::kAssured);
  served.clear();
  link.step(served);
  ASSERT_EQ(served.size(), 1u);
  EXPECT_EQ(served[0].cls, TrafficClass::kBestEffort);
}

TEST(PriorityLink, FractionalServiceRateAccumulates) {
  PriorityLink link(0.5, 100);
  link.enqueue(make_packet(TrafficClass::kBestEffort));
  link.enqueue(make_packet(TrafficClass::kBestEffort));
  std::vector<traffic::Packet> served;
  link.step(served);
  EXPECT_EQ(served.size(), 0u);  // credit 0.5
  link.step(served);
  EXPECT_EQ(served.size(), 1u);  // credit 1.0 -> serve one
  link.step(served);
  link.step(served);
  EXPECT_EQ(served.size(), 2u);
}

TEST(PriorityLink, TailDropWhenFull) {
  PriorityLink link(1.0, 2);
  link.enqueue(make_packet(TrafficClass::kBestEffort));
  link.enqueue(make_packet(TrafficClass::kBestEffort));
  link.enqueue(make_packet(TrafficClass::kBestEffort));
  EXPECT_EQ(link.tail_drops(TrafficClass::kBestEffort), 1u);
  EXPECT_EQ(link.queue_depth(TrafficClass::kBestEffort), 2u);
}

TEST(PriorityLink, IdleCreditDoesNotExplode) {
  PriorityLink link(1.0, 10);
  std::vector<traffic::Packet> served;
  for (int i = 0; i < 50; ++i) link.step(served);  // idle
  for (int i = 0; i < 5; ++i) link.enqueue(make_packet(TrafficClass::kBestEffort));
  link.step(served);
  // At most 2 packets (1 stored credit + 1 new) can be served in one slot.
  EXPECT_LE(served.size(), 2u);
}

TEST(LanModel, DeliversThroughAllHops) {
  LanModel lan(EdgePolicy{}, 3, 1.0, 100);
  lan.inject(make_packet(TrafficClass::kBestEffort, 0), 0);
  for (int slot = 1; slot <= 10; ++slot) {
    lan.step(slots_to_ticks(slot));
  }
  EXPECT_EQ(lan.sink().total_delivered(), 1u);
  // 3 hops at 1 slot each: delay >= 3 slots.
  EXPECT_GE(lan.sink().by_class(TrafficClass::kBestEffort).delay_slots.mean(),
            3.0);
}

TEST(LanModel, PremiumOutrunsBestEffortUnderLoad) {
  EdgePolicy policy;
  policy.premium_rate = 0.2;
  policy.premium_burst = 8.0;
  LanModel lan(policy, 2, 0.5, 1000);
  // Offer mixed traffic above the service rate.
  for (int slot = 0; slot < 400; ++slot) {
    const Tick now = slots_to_ticks(slot);
    if (slot % 8 == 0) {
      auto p = make_packet(TrafficClass::kRealTime, now);
      lan.inject(p, now);
    }
    auto be = make_packet(TrafficClass::kBestEffort, now);
    lan.inject(be, now);
    lan.step(now);
  }
  const auto& premium = lan.sink().by_class(TrafficClass::kRealTime);
  const auto& best_effort = lan.sink().by_class(TrafficClass::kBestEffort);
  ASSERT_GT(premium.delivered, 0u);
  ASSERT_GT(best_effort.delivered, 0u);
  EXPECT_LT(premium.delay_slots.mean(), best_effort.delay_slots.mean());
}

TEST(LanModel, PremiumReservationAccounting) {
  EdgePolicy policy;
  policy.premium_rate = 0.1;
  LanModel lan(policy, 1, 1.0, 10);
  BackboneSegment& links = lan.links();
  EXPECT_TRUE(links.can_reserve_premium(0.06));
  links.reserve_premium(0.06);
  EXPECT_TRUE(links.can_reserve_premium(0.04));
  EXPECT_FALSE(links.can_reserve_premium(0.05));
}

TEST(LanModel, OutOfProfilePremiumCountedAsDrop) {
  EdgePolicy policy;
  policy.premium_rate = 0.001;
  policy.premium_burst = 1.0;
  LanModel lan(policy, 1, 1.0, 10);
  lan.inject(make_packet(TrafficClass::kRealTime), 0);
  lan.inject(make_packet(TrafficClass::kRealTime), 0);
  EXPECT_EQ(lan.edge().premium_drops(), 1u);
  EXPECT_EQ(lan.sink().by_class(TrafficClass::kRealTime).dropped, 1u);
}

}  // namespace
}  // namespace wrt::diffserv
