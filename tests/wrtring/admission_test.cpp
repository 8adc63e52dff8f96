#include "wrtring/admission.hpp"

#include <gtest/gtest.h>

#include "tests/wrtring/test_helpers.hpp"

namespace wrt::wrtring {
namespace {

using testing::Harness;

SessionRequest session(FlowId flow, NodeId station, std::int64_t period,
                       std::int64_t packets, std::int64_t deadline) {
  SessionRequest request;
  request.flow = flow;
  request.station = station;
  request.period_slots = period;
  request.packets_per_period = packets;
  request.deadline_slots = deadline;
  return request;
}

class AdmissionTest : public ::testing::Test {
 protected:
  AdmissionTest()
      : harness_(8, Config{}),
        controller_(&harness_.engine,
                    analysis::AllocationScheme::kProportional,
                    /*l_budget=*/8, /*k_per_station=*/1) {}

  Harness harness_;
  AdmissionController controller_;
};

TEST_F(AdmissionTest, AdmitsFeasibleSession) {
  const auto result = controller_.admit(session(1, 0, 200, 1, 2000));
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result.value().l, 1u);
  EXPECT_EQ(controller_.session_count(), 1u);
  EXPECT_TRUE(controller_.has_session(1));
}

TEST_F(AdmissionTest, AppliesQuotaToEngine) {
  ASSERT_TRUE(controller_.admit(session(1, 3, 100, 2, 3000)).ok());
  EXPECT_GE(harness_.engine.station_quota(3).l, 1u);
  // Stations without sessions end up with zero real-time quota.
  EXPECT_EQ(harness_.engine.station_quota(5).l, 0u);
  EXPECT_EQ(harness_.engine.station_quota(5).k, 1u);
}

TEST_F(AdmissionTest, RejectsImpossibleDeadline) {
  const auto result = controller_.admit(session(1, 0, 100, 1, 10));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, util::Error::Code::kAdmissionRejected);
  EXPECT_EQ(controller_.session_count(), 0u);
}

TEST_F(AdmissionTest, RejectionLeavesExistingGuaranteesIntact) {
  ASSERT_TRUE(controller_.admit(session(1, 0, 200, 1, 4000)).ok());
  const auto delay_before = controller_.guaranteed_delay(1);
  ASSERT_TRUE(delay_before.ok());
  ASSERT_FALSE(controller_.admit(session(2, 1, 100, 1, 5)).ok());
  const auto delay_after = controller_.guaranteed_delay(1);
  ASSERT_TRUE(delay_after.ok());
  EXPECT_EQ(delay_before.value(), delay_after.value());
}

TEST_F(AdmissionTest, RejectsDuplicateFlow) {
  ASSERT_TRUE(controller_.admit(session(1, 0, 200, 1, 4000)).ok());
  EXPECT_FALSE(controller_.admit(session(1, 1, 200, 1, 4000)).ok());
}

TEST_F(AdmissionTest, RejectsBadParameters) {
  EXPECT_FALSE(controller_.admit(session(1, 0, 0, 1, 1000)).ok());
  EXPECT_FALSE(controller_.admit(session(2, 0, 100, 0, 1000)).ok());
  EXPECT_FALSE(controller_.admit(session(3, 0, 100, 1, 0)).ok());
  EXPECT_FALSE(controller_.admit(session(4, 99, 100, 1, 1000)).ok());
}

TEST_F(AdmissionTest, ReleaseRedistributes) {
  ASSERT_TRUE(controller_.admit(session(1, 0, 100, 2, 4000)).ok());
  ASSERT_TRUE(controller_.admit(session(2, 4, 100, 2, 4000)).ok());
  const std::uint32_t l_station4 = harness_.engine.station_quota(4).l;
  ASSERT_TRUE(controller_.release(1).ok());
  EXPECT_FALSE(controller_.has_session(1));
  // With the competitor gone, station 4 keeps at least its share.
  EXPECT_GE(harness_.engine.station_quota(4).l, l_station4);
}

TEST_F(AdmissionTest, ReleaseUnknownFails) {
  EXPECT_FALSE(controller_.release(77).ok());
}

TEST_F(AdmissionTest, MultipleSessionsPerStationAggregate) {
  ASSERT_TRUE(controller_.admit(session(1, 2, 100, 1, 4000)).ok());
  ASSERT_TRUE(controller_.admit(session(2, 2, 50, 1, 4000)).ok());
  EXPECT_EQ(controller_.session_count(), 2u);
  // Aggregated load 0.03 pkt/slot still fits the budget.
  EXPECT_GE(harness_.engine.station_quota(2).l, 1u);
}

TEST_F(AdmissionTest, GuaranteedDelayMatchesTheorem3) {
  ASSERT_TRUE(controller_.admit(session(2, 1, 100, 3, 4000)).ok());
  const auto delay = controller_.guaranteed_delay(2);
  ASSERT_TRUE(delay.ok());
  const auto params = harness_.engine.ring_params();
  const std::size_t index =
      harness_.engine.virtual_ring().position_of(1);
  EXPECT_EQ(delay.value(), analysis::access_time_bound(params, index, 2));
  EXPECT_FALSE(controller_.guaranteed_delay(99).ok());
}

TEST_F(AdmissionTest, StationDepartureDropsItsSessions) {
  ASSERT_TRUE(controller_.admit(session(1, 2, 100, 1, 4000)).ok());
  ASSERT_TRUE(controller_.admit(session(2, 2, 100, 1, 4000)).ok());
  ASSERT_TRUE(controller_.admit(session(3, 5, 100, 1, 4000)).ok());
  // Simulate the ring losing station 2 (e.g. after a cut-out).
  ASSERT_TRUE(harness_.engine.request_leave(2).ok());
  harness_.engine.run_slots(500);
  ASSERT_FALSE(harness_.engine.virtual_ring().contains(2));
  EXPECT_EQ(controller_.on_station_left(2), 2u);
  EXPECT_EQ(controller_.session_count(), 1u);
  EXPECT_TRUE(controller_.has_session(3));
}

TEST_F(AdmissionTest, AdmittedSessionMeetsItsGuaranteeInSimulation) {
  const auto quota = controller_.admit(session(1, 0, 64, 1, 4000));
  ASSERT_TRUE(quota.ok());
  const auto guaranteed = controller_.guaranteed_delay(1);
  ASSERT_TRUE(guaranteed.ok());

  traffic::FlowSpec spec;
  spec.id = 1;
  spec.src = 0;
  spec.dst = 4;
  spec.cls = TrafficClass::kRealTime;
  spec.kind = traffic::ArrivalKind::kCbr;
  spec.period_slots = 64.0;
  spec.deadline_slots = guaranteed.value() + 10;
  harness_.engine.add_source(spec);
  harness_.engine.run_slots(8000);
  const auto& rt =
      harness_.engine.stats().sink.by_class(TrafficClass::kRealTime);
  ASSERT_GT(rt.delivered, 100u);
  EXPECT_EQ(rt.deadline_misses, 0u);
}

}  // namespace
}  // namespace wrt::wrtring
