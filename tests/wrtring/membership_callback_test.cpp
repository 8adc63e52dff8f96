#include <gtest/gtest.h>

#include "analysis/bounds.hpp"
#include "tests/wrtring/test_helpers.hpp"
#include "wrtring/admission.hpp"
#include "wrtring/engine.hpp"

namespace wrt::wrtring {
namespace {

using testing::Harness;

TEST(MembershipCallback, FiresOnCutOut) {
  Harness h(8, Config{});
  std::vector<std::pair<NodeId, bool>> events;
  h.engine.set_membership_callback([&](NodeId node, bool joined) {
    events.emplace_back(node, joined);
  });
  h.engine.run_slots(100);
  const NodeId victim = h.engine.virtual_ring().station_at(4);
  h.engine.kill_station(victim);
  h.engine.run_slots(4 * analysis::sat_time_bound(h.engine.ring_params()));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], std::make_pair(victim, false));
}

TEST(MembershipCallback, FiresOnJoin) {
  Config config;
  config.rap_policy = RapPolicy::kRotating;
  Harness h(6, config);
  std::vector<std::pair<NodeId, bool>> events;
  h.engine.set_membership_callback([&](NodeId node, bool joined) {
    events.emplace_back(node, joined);
  });
  const phy::Vec2 mid =
      (h.topology.position(0) + h.topology.position(1)) * 0.5;
  const NodeId joiner = h.topology.add_node(mid);
  h.engine.request_join(joiner, {1, 1});
  h.engine.run_slots(6 * 40 * 10);
  ASSERT_GE(events.size(), 1u);
  EXPECT_EQ(events.back(), std::make_pair(joiner, true));
}

TEST(MembershipCallback, FiresOnGracefulLeave) {
  Harness h(8, Config{});
  std::vector<NodeId> departed;
  h.engine.set_membership_callback([&](NodeId node, bool joined) {
    if (!joined) departed.push_back(node);
  });
  const NodeId leaver = h.engine.virtual_ring().station_at(2);
  ASSERT_TRUE(h.engine.request_leave(leaver).ok());
  h.engine.run_slots(500);
  ASSERT_EQ(departed.size(), 1u);
  EXPECT_EQ(departed[0], leaver);
}

TEST(MembershipCallback, UnsubscribeStopsEvents) {
  Harness h(8, Config{});
  int count = 0;
  h.engine.set_membership_callback([&](NodeId, bool) { ++count; });
  h.engine.set_membership_callback(nullptr);
  ASSERT_TRUE(
      h.engine.request_leave(h.engine.virtual_ring().station_at(1)).ok());
  h.engine.run_slots(500);
  EXPECT_EQ(count, 0);
}

TEST(MembershipCallback, BoundAdmissionControllerDropsSessions) {
  Harness h(8, Config{});
  AdmissionController controller(
      &h.engine, analysis::AllocationScheme::kProportional, 8, 1);
  controller.bind_membership_events();

  SessionRequest request;
  request.flow = 1;
  request.station = h.engine.virtual_ring().station_at(3);
  request.period_slots = 100;
  request.packets_per_period = 1;
  request.deadline_slots = 3000;
  ASSERT_TRUE(controller.admit(request).ok());
  SessionRequest other = request;
  other.flow = 2;
  other.station = h.engine.virtual_ring().station_at(5);
  ASSERT_TRUE(controller.admit(other).ok());
  ASSERT_EQ(controller.session_count(), 2u);

  // The station dies; the cut-out must automatically drop its session and
  // rebalance the survivor's quota.
  h.engine.run_slots(100);
  h.engine.kill_station(request.station);
  h.engine.run_slots(4 * analysis::sat_time_bound(h.engine.ring_params()));
  EXPECT_EQ(controller.session_count(), 1u);
  EXPECT_FALSE(controller.has_session(1));
  EXPECT_TRUE(controller.has_session(2));
  EXPECT_GE(h.engine.station_quota(other.station).l, 1u);
}

}  // namespace
}  // namespace wrt::wrtring
