// Figure-2 scenario: the ad hoc ring is connected to a wired Diffserv LAN
// through gateway station G1 (Section 2.3).  Real-time streams crossing the
// boundary must reserve bandwidth on the *other* network first; in-profile
// Premium traffic then crosses with priority while best-effort takes what
// is left.
//
//   $ build/examples/gateway_diffserv
#include <iostream>

#include "analysis/bounds.hpp"
#include "diffserv/diffserv.hpp"
#include "phy/topology.hpp"
#include "wrtring/engine.hpp"
#include "wrtring/gateway.hpp"

int main() {
  using namespace wrt;

  // The ad hoc side: an 8-station ring; station G1 = ring station 0.
  phy::Topology topology(phy::placement::circle(8, 10.0),
                         phy::RadioParams{18.0, 0.0});
  wrtring::Config config;
  config.default_quota = {2, 2};
  config.k1_assured = 1;  // k = 2 split: 1 Assured + 1 best-effort
  wrtring::Engine engine(&topology, config, 11);
  if (const auto status = engine.init(); !status.ok()) {
    std::cerr << "ring init failed: " << status.error().message << '\n';
    return 1;
  }
  engine.set_max_sat_time_goal(
      analysis::sat_time_bound(engine.ring_params()) + 16);

  // The wired side: a 3-hop Diffserv LAN with a policed Premium share.
  diffserv::EdgePolicy policy;
  policy.premium_rate = 0.08;   // packets/slot of Premium capacity
  policy.premium_burst = 4.0;
  policy.assured_rate = 0.15;
  diffserv::LanModel lan(policy, /*hops=*/3, /*service_rate=*/0.6,
                         /*queue_capacity=*/512);

  const NodeId g1 = engine.virtual_ring().station_at(0);
  wrtring::Gateway gateway(&engine, &lan.links(), g1);
  std::cout << "gateway G1 is ring station " << g1 << "\n\n";

  // --- Reservation phase (the Section 2.3 handshake) ---
  struct Ask {
    const char* what;
    bool into_ring;
    double rate;
  };
  const Ask asks[] = {
      {"video stream LAN -> ring", true, 0.03},
      {"audio stream LAN -> ring", true, 0.02},
      {"bulk feed   LAN -> ring (over budget)", true, 0.60},
      {"camera feed ring -> LAN", false, 0.05},
      {"2nd camera  ring -> LAN (over LAN Premium)", false, 0.05},
  };
  FlowId next_flow = 1;
  for (const Ask& ask : asks) {
    const auto result =
        ask.into_ring
            ? gateway.reserve_lan_to_ring(next_flow, ask.rate)
            : gateway.reserve_ring_to_lan(next_flow, ask.rate);
    ++next_flow;
    std::cout << (result.ok() ? "ACCEPTED " : "REJECTED ") << ask.what
              << " @ " << ask.rate << " pkt/slot";
    if (!result.ok()) std::cout << "  (" << result.error().message << ")";
    std::cout << '\n';
  }

  // --- Data phase: granted ring->LAN Premium stream + LAN cross traffic ---
  // The ring carries the camera flow from station 4 to G1; G1 forwards
  // every delivered packet into the LAN, where background best-effort
  // competes with it.
  traffic::FlowSpec camera;
  camera.id = 100;
  camera.src = 4;
  camera.dst = g1;
  camera.cls = TrafficClass::kRealTime;
  camera.kind = traffic::ArrivalKind::kCbr;
  camera.period_slots = 20.0;  // 0.05 pkt/slot, as reserved
  camera.deadline_slots = 1 << 20;
  engine.add_source(camera);

  util::RngStream lan_noise(99);
  std::uint64_t forwarded = 0;
  std::uint64_t ring_delivered_before = 0;
  for (std::int64_t slot = 0; slot < 20000; ++slot) {
    engine.step();
    // Forward newly ring-delivered camera packets into the LAN.
    const auto& per_flow = engine.stats().sink.per_flow();
    if (const auto it = per_flow.find(100); it != per_flow.end()) {
      while (ring_delivered_before < it->second.count()) {
        traffic::Packet packet;
        packet.flow = 100;
        packet.cls = TrafficClass::kRealTime;
        packet.created = engine.now();
        lan.inject(packet, engine.now());
        ++ring_delivered_before;
        ++forwarded;
      }
    }
    // LAN background: bursty best-effort at ~0.4 pkt/slot.
    if (lan_noise.bernoulli(0.4)) {
      traffic::Packet noise;
      noise.flow = 200;
      noise.cls = TrafficClass::kBestEffort;
      noise.created = engine.now();
      lan.inject(noise, engine.now());
    }
    lan.step(engine.now());
  }

  const auto& premium = lan.sink().by_class(TrafficClass::kRealTime);
  const auto& best_effort = lan.sink().by_class(TrafficClass::kBestEffort);
  std::cout << "\n--- after 20,000 slots ---\n"
            << "camera packets ring->G1->LAN : " << forwarded
            << " forwarded, " << premium.delivered << " delivered, mean LAN "
            << "delay " << premium.delay_slots.mean() << " slots\n"
            << "LAN best-effort              : " << best_effort.delivered
            << " delivered, mean delay " << best_effort.delay_slots.mean()
            << " slots\n"
            << "Premium policer drops        : " << lan.edge().premium_drops()
            << '\n'
            << "=> in-profile Premium crosses the LAN faster than "
               "best-effort, as the two-bit architecture promises\n";
  return 0;
}
