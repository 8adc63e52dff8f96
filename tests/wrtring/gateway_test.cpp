#include "wrtring/gateway.hpp"

#include <gtest/gtest.h>

#include <map>

#include "tests/wrtring/test_helpers.hpp"

namespace wrt::wrtring {
namespace {

using testing::Harness;

diffserv::EdgePolicy lan_policy() {
  diffserv::EdgePolicy policy;
  policy.premium_rate = 0.10;
  policy.premium_burst = 4.0;
  policy.assured_rate = 0.2;
  return policy;
}

class GatewayTest : public ::testing::Test {
 protected:
  GatewayTest()
      : harness_(8, Config{}),
        lan_(lan_policy(), 2, 1.0, 256),
        gateway_(&harness_.engine, &lan_.links(),
                 harness_.engine.virtual_ring().station_at(0)) {
    harness_.engine.set_max_sat_time_goal(60);
  }

  Harness harness_;
  diffserv::LanModel lan_;
  Gateway gateway_;
};

TEST_F(GatewayTest, LanToRingReservationWithinBoundAccepted) {
  const auto result = gateway_.reserve_lan_to_ring(1, 0.02);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().carrier, gateway_.station());
  EXPECT_FALSE(result.value().premium);
  ASSERT_EQ(gateway_.reservations().size(), 1u);
  EXPECT_DOUBLE_EQ(gateway_.reservations()[0].rate_per_slot, 0.02);
}

TEST_F(GatewayTest, LanToRingReservationBeyondBoundRejected) {
  // A rate needing more l quota than the SAT-time goal admits.
  const auto result = gateway_.reserve_lan_to_ring(2, 2.0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, util::Error::Code::kAdmissionRejected);
  EXPECT_TRUE(gateway_.reservations().empty());
}

TEST_F(GatewayTest, RingToLanHonoursPremiumCapacity) {
  ASSERT_TRUE(gateway_.reserve_ring_to_lan(3, 0.06).ok());
  // 0.06 + 0.05 > 0.10 Premium capacity.
  const auto second = gateway_.reserve_ring_to_lan(4, 0.05);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error().code, util::Error::Code::kAdmissionRejected);
  // A smaller stream still fits.
  EXPECT_TRUE(gateway_.reserve_ring_to_lan(5, 0.03).ok());
}

TEST_F(GatewayTest, RejectsNonPositiveRates) {
  EXPECT_FALSE(gateway_.reserve_lan_to_ring(1, 0.0).ok());
  EXPECT_FALSE(gateway_.reserve_ring_to_lan(1, -0.5).ok());
}

TEST_F(GatewayTest, ForwardedPacketsCrossTheLan) {
  traffic::Packet p;
  p.flow = 6;
  p.cls = TrafficClass::kRealTime;
  p.created = 0;
  lan_.inject(p, 0);
  for (int slot = 1; slot <= 10; ++slot) {
    lan_.step(slots_to_ticks(slot));
  }
  EXPECT_EQ(lan_.sink().total_delivered(), 1u);
}

TEST_F(GatewayTest, ReservationLedger) {
  ASSERT_TRUE(gateway_.reserve_lan_to_ring(1, 0.01).ok());
  ASSERT_TRUE(gateway_.reserve_ring_to_lan(2, 0.02).ok());
  ASSERT_EQ(gateway_.reservations().size(), 2u);
  const Reservation& into_ring = gateway_.reservations()[0];
  EXPECT_EQ(into_ring.carrier, gateway_.station());
  EXPECT_FALSE(into_ring.premium);
  EXPECT_DOUBLE_EQ(into_ring.rate_per_slot, 0.01);
  const Reservation& into_lan = gateway_.reservations()[1];
  EXPECT_EQ(into_lan.carrier, kInvalidNode);
  EXPECT_EQ(into_lan.granted_l, 0u);
  EXPECT_TRUE(into_lan.premium);
  EXPECT_DOUBLE_EQ(lan_.links().reserved_premium(), 0.02);
}

TEST_F(GatewayTest, StationAccessor) {
  EXPECT_EQ(gateway_.station(),
            harness_.engine.virtual_ring().station_at(0));
}

TEST_F(GatewayTest, GrantRaisesG1Quota) {
  const Quota before = harness_.engine.station_quota(gateway_.station());
  const auto result = gateway_.reserve_lan_to_ring(7, 0.05);
  ASSERT_TRUE(result.ok());
  const Quota after = harness_.engine.station_quota(gateway_.station());
  EXPECT_EQ(after.l, before.l + result.value().granted_l);
  EXPECT_GE(result.value().granted_l, 1u);
  EXPECT_EQ(after.k, before.k);
}

TEST_F(GatewayTest, ReleaseRestoresRingQuota) {
  const Quota before = harness_.engine.station_quota(gateway_.station());
  ASSERT_TRUE(gateway_.reserve_lan_to_ring(7, 0.05).ok());
  ASSERT_TRUE(gateway_.release(7).ok());
  EXPECT_EQ(harness_.engine.station_quota(gateway_.station()), before);
  EXPECT_TRUE(gateway_.reservations().empty());
}

TEST_F(GatewayTest, ReleaseRestoresLanCapacity) {
  ASSERT_TRUE(gateway_.reserve_ring_to_lan(8, 0.08).ok());
  EXPECT_FALSE(gateway_.reserve_ring_to_lan(9, 0.05).ok());
  ASSERT_TRUE(gateway_.release(8).ok());
  EXPECT_TRUE(gateway_.reserve_ring_to_lan(9, 0.05).ok());
}

TEST_F(GatewayTest, EachLegHoldsExactlyItsResources) {
  Engine& engine = harness_.engine;
  diffserv::BackboneSegment far_side(/*hops=*/2, /*service_rate=*/1.0,
                                     /*queue_capacity=*/64,
                                     /*premium_capacity=*/0.10);
  const NodeId g1 = engine.virtual_ring().station_at(0);
  const NodeId source = engine.virtual_ring().station_at(3);
  Gateway gateway(&engine, &far_side, g1);
  const auto l_quotas = [&engine] {
    std::map<NodeId, std::uint32_t> l;
    for (const NodeId member : engine.virtual_ring().order()) {
      l[member] = engine.station_quota(member).l;
    }
    return l;
  };
  const std::map<NodeId, std::uint32_t> before = l_quotas();

  // A grant moves only the carrier's l (by granted_l) and the far side's
  // Premium budget (by the rate), whichever the leg holds; release()
  // returns both.
  const auto expect_holds = [&](const util::Result<Reservation>& result,
                                NodeId carrier, bool premium) {
    ASSERT_TRUE(result.ok());
    const Reservation& held = result.value();
    EXPECT_EQ(held.carrier, carrier);
    EXPECT_EQ(held.premium, premium);
    std::map<NodeId, std::uint32_t> expected = before;
    if (carrier != kInvalidNode) {
      EXPECT_GE(held.granted_l, 1u);
      expected[carrier] += held.granted_l;
    } else {
      EXPECT_EQ(held.granted_l, 0u);
    }
    EXPECT_EQ(l_quotas(), expected);
    EXPECT_DOUBLE_EQ(far_side.reserved_premium(),
                     premium ? held.rate_per_slot : 0.0);
    ASSERT_TRUE(gateway.release(held.flow).ok());
    EXPECT_EQ(l_quotas(), before);
    EXPECT_DOUBLE_EQ(far_side.reserved_premium(), 0.0);
  };
  expect_holds(gateway.reserve_lan_to_ring(1, 0.02), g1, false);
  expect_holds(gateway.reserve_ring_to_lan(2, 0.05), kInvalidNode, true);
  expect_holds(gateway.reserve_ring_capacity(source, 3, 0.02), source, false);
  expect_holds(gateway.reserve_backbone_to_ring(4, 0.05), g1, true);

  // A refused request holds nothing.  With the Premium budget full, the
  // ingress leg's ring check passes but G1's l stays the same.
  ASSERT_TRUE(gateway.reserve_ring_to_lan(5, 0.10).ok());
  const auto no_premium = gateway.reserve_backbone_to_ring(6, 0.05);
  ASSERT_FALSE(no_premium.ok());
  EXPECT_EQ(no_premium.error().code, util::Error::Code::kAdmissionRejected);
  EXPECT_EQ(l_quotas(), before);
  EXPECT_DOUBLE_EQ(far_side.reserved_premium(), 0.10);
  ASSERT_TRUE(gateway.release(5).ok());

  // With a SAT-time goal no extra quota meets, the ring leg refuses and
  // the Premium budget stays the same.
  ASSERT_TRUE(gateway.reserve_ring_to_lan(7, 0.04).ok());
  engine.set_max_sat_time_goal(1);
  const auto no_ring = gateway.reserve_backbone_to_ring(8, 0.05);
  ASSERT_FALSE(no_ring.ok());
  EXPECT_EQ(no_ring.error().code, util::Error::Code::kAdmissionRejected);
  EXPECT_FALSE(gateway.reserve_lan_to_ring(9, 0.02).ok());
  EXPECT_FALSE(gateway.reserve_ring_capacity(source, 10, 0.02).ok());
  EXPECT_EQ(l_quotas(), before);
  EXPECT_DOUBLE_EQ(far_side.reserved_premium(), 0.04);
  EXPECT_EQ(gateway.reservations().size(), 1u);
}

TEST_F(GatewayTest, ReleaseAfterTheCarrierLeftFreesThePremium) {
  // G1 carries the ingress leg's quota.  Once G1 has left the ring, its
  // quota has gone with it: release returns only the Premium.
  ASSERT_TRUE(gateway_.reserve_backbone_to_ring(7, 0.02).ok());
  EXPECT_DOUBLE_EQ(lan_.links().reserved_premium(), 0.02);
  ASSERT_TRUE(harness_.engine.request_leave(gateway_.station()).ok());
  harness_.engine.run_slots(2000);
  ASSERT_FALSE(harness_.engine.virtual_ring().contains(gateway_.station()));

  ASSERT_TRUE(gateway_.release(7).ok());
  EXPECT_TRUE(gateway_.reservations().empty());
  EXPECT_DOUBLE_EQ(lan_.links().reserved_premium(), 0.0);
}

TEST_F(GatewayTest, ReleaseUnknownFlowFails) {
  EXPECT_FALSE(gateway_.release(99).ok());
}

TEST_F(GatewayTest, GrantedStreamActuallyFitsThroughG1) {
  // Without the grant a 0.2 pkt/slot inbound stream would exceed G1's
  // default l = 1 per round; with it, the ring carries the stream with no
  // queue growth at G1.
  harness_.engine.set_max_sat_time_goal(200);
  const auto result = gateway_.reserve_lan_to_ring(7, 0.2);
  ASSERT_TRUE(result.ok());
  traffic::FlowSpec inbound;
  inbound.id = 7;
  inbound.src = gateway_.station();
  inbound.dst = harness_.engine.virtual_ring().station_at(4);
  inbound.cls = TrafficClass::kRealTime;
  inbound.kind = traffic::ArrivalKind::kCbr;
  inbound.period_slots = 5.0;  // 0.2 pkt/slot
  inbound.deadline_slots = 1 << 20;
  harness_.engine.add_source(inbound);
  harness_.engine.run_slots(6000);
  const auto& per_flow = harness_.engine.stats().sink.per_flow();
  ASSERT_TRUE(per_flow.contains(7));
  // ~1200 generated; nearly all must be through.
  EXPECT_GT(per_flow.at(7).count(), 1100u);
  EXPECT_LT(harness_.engine
                .queue_depth(gateway_.station(), TrafficClass::kRealTime)
                .value(),
            20u);
}

}  // namespace
}  // namespace wrt::wrtring
