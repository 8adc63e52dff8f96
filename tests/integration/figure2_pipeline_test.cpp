// Full Figure-2 pipeline: admission-controlled real-time sessions on the
// ring, gateway G1 bridging into a Diffserv LAN, end-to-end delivery with
// class-dependent service — every subsystem of the reproduction composed.
#include <gtest/gtest.h>

#include "diffserv/diffserv.hpp"
#include "tests/wrtring/test_helpers.hpp"
#include "wrtring/admission.hpp"
#include "wrtring/engine.hpp"
#include "wrtring/gateway.hpp"

namespace wrt {
namespace {

class Figure2Pipeline : public ::testing::Test {
 protected:
  Figure2Pipeline()
      : harness_(8, wrtring::Config{}),
        controller_(&harness_.engine,
                    analysis::AllocationScheme::kNormalizedProportional, 8,
                    1),
        lan_(policy(), 2, 0.8, 512),
        gateway_(&harness_.engine, &lan_.links(),
                 harness_.engine.virtual_ring().station_at(0)) {
    harness_.engine.set_max_sat_time_goal(120);
  }

  static diffserv::EdgePolicy policy() {
    diffserv::EdgePolicy p;
    p.premium_rate = 0.10;
    p.premium_burst = 4.0;
    p.assured_rate = 0.2;
    return p;
  }

  wrtring::testing::Harness harness_;
  wrtring::AdmissionController controller_;
  diffserv::LanModel lan_;
  wrtring::Gateway gateway_;
};

TEST_F(Figure2Pipeline, AdmittedSessionCrossesRingAndLanInOrder) {
  // 1. Admission: a camera session at station 4 toward the gateway.
  wrtring::SessionRequest request;
  request.flow = 7;
  request.station = 4;
  request.period_slots = 25;
  request.packets_per_period = 1;
  request.deadline_slots = 2000;
  ASSERT_TRUE(controller_.admit(request).ok());

  // 2. Gateway reservation for the LAN half.
  ASSERT_TRUE(gateway_.reserve_ring_to_lan(7, 0.04).ok());

  // 3. Run: ring delivers to G1; every G1 delivery enters the LAN; LAN
  //    background BE competes.
  traffic::FlowSpec camera;
  camera.id = 7;
  camera.src = 4;
  camera.dst = gateway_.station();
  camera.cls = TrafficClass::kRealTime;
  camera.kind = traffic::ArrivalKind::kCbr;
  camera.period_slots = 25.0;
  camera.deadline_slots = 500;
  harness_.engine.add_source(camera);

  util::RngStream noise(3);
  std::uint64_t forwarded = 0;
  for (std::int64_t slot = 0; slot < 10000; ++slot) {
    harness_.engine.step();
    const auto& per_flow = harness_.engine.stats().sink.per_flow();
    if (const auto it = per_flow.find(7); it != per_flow.end()) {
      while (forwarded < it->second.count()) {
        traffic::Packet packet;
        packet.flow = 7;
        packet.cls = TrafficClass::kRealTime;
        packet.created = harness_.engine.now();
        lan_.inject(packet, harness_.engine.now());
        ++forwarded;
      }
    }
    if (noise.bernoulli(0.5)) {
      traffic::Packet be;
      be.flow = 50;
      be.cls = TrafficClass::kBestEffort;
      be.created = harness_.engine.now();
      lan_.inject(be, harness_.engine.now());
    }
    lan_.step(harness_.engine.now());
  }

  // Ring half: all camera packets delivered, no deadline misses.
  const auto& rt_ring =
      harness_.engine.stats().sink.by_class(TrafficClass::kRealTime);
  EXPECT_GT(rt_ring.delivered, 350u);
  EXPECT_EQ(rt_ring.deadline_misses, 0u);

  // LAN half: Premium forwarded without policer drops and faster than the
  // saturating best-effort background.
  const auto& premium = lan_.sink().by_class(TrafficClass::kRealTime);
  const auto& be = lan_.sink().by_class(TrafficClass::kBestEffort);
  EXPECT_EQ(premium.delivered, forwarded);
  EXPECT_EQ(lan_.edge().premium_drops(), 0u);
  ASSERT_GT(be.delivered, 0u);
  EXPECT_LT(premium.delay_slots.mean(), be.delay_slots.mean());
}

TEST_F(Figure2Pipeline, OverbookedSessionRejectedBeforeAnyTrafficFlows) {
  wrtring::SessionRequest greedy;
  greedy.flow = 9;
  greedy.station = 2;
  greedy.period_slots = 2;
  greedy.packets_per_period = 2;  // 1 packet/slot — beyond any quota budget
  greedy.deadline_slots = 40;
  const auto verdict = controller_.admit(greedy);
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(controller_.session_count(), 0u);
}

TEST_F(Figure2Pipeline, RingAdmissionAndLanAdmissionAreIndependent) {
  // The ring can still accept what the LAN refuses, and vice versa.
  ASSERT_TRUE(gateway_.reserve_ring_to_lan(1, 0.09).ok());
  EXPECT_FALSE(gateway_.reserve_ring_to_lan(2, 0.09).ok());  // LAN full
  wrtring::SessionRequest request;
  request.flow = 3;
  request.station = 5;
  request.period_slots = 50;
  request.packets_per_period = 1;
  request.deadline_slots = 3000;
  EXPECT_TRUE(controller_.admit(request).ok());  // ring still has budget
}

}  // namespace
}  // namespace wrt
