// E10 — Section 2.3 / Figure 2: Diffserv classes on WRT-Ring.
//
// Premium <-> l quota (guaranteed), Assured <-> k1, best-effort <-> k2,
// with k1 + k2 = k and Assured prioritised over best-effort.  Series (a)
// sweeps load and reports per-class delay/throughput on the ring; series
// (b) exercises the Figure-2 gateway: reservations against the ring bound
// and the LAN Premium capacity.
#include "bench/bench_common.hpp"

#include "analysis/bounds.hpp"
#include "diffserv/diffserv.hpp"
#include "wrtring/engine.hpp"
#include "wrtring/gateway.hpp"

int main(int argc, char** argv) {
  using namespace wrt;
  bench::Reporter reporter("diffserv_classes", argc, argv);
  reporter.seed(13);
  reporter.seed(17);
  const bool csv = reporter.csv();
  constexpr std::size_t kN = 12;

  util::Table classes(
      "E10a  per-class service on the ring (l=1, k=3 split k1=2/k2=1)",
      {"BE load/station", "class", "delivered", "mean delay", "p99 delay",
       "deadline misses"});
  for (const double be_load : {0.05, 0.15, 0.4}) {
    phy::Topology topology = bench::ring_room(kN);
    wrtring::Config config;
    config.default_quota = {1, 3};
    config.k1_assured = 2;
    wrtring::Engine engine(&topology, config, 13);
    if (!engine.init().ok()) return 1;
    for (NodeId node = 0; node < kN; ++node) {
      traffic::FlowSpec premium;
      premium.id = node;
      premium.src = node;
      premium.dst = static_cast<NodeId>((node + kN / 2) % kN);
      premium.cls = TrafficClass::kRealTime;
      premium.kind = traffic::ArrivalKind::kCbr;
      premium.period_slots = 64.0;
      premium.deadline_slots = analysis::sat_time_bound(engine.ring_params()) +
                               static_cast<std::int64_t>(kN);
      engine.add_source(premium);

      traffic::FlowSpec assured = premium;
      assured.id = static_cast<FlowId>(node + kN);
      assured.cls = TrafficClass::kAssured;
      assured.kind = traffic::ArrivalKind::kPoisson;
      assured.rate_per_slot = 0.05;
      engine.add_source(assured);

      traffic::FlowSpec best_effort = premium;
      best_effort.id = static_cast<FlowId>(node + 2 * kN);
      best_effort.cls = TrafficClass::kBestEffort;
      best_effort.kind = traffic::ArrivalKind::kOnOff;
      best_effort.rate_per_slot = 2.0 * be_load;
      best_effort.on_mean_slots = 200.0;
      best_effort.off_mean_slots = 200.0;
      engine.add_source(best_effort);
    }
    engine.run_slots(reporter.slots(20000));
    const auto& sink = engine.stats().sink;
    for (const TrafficClass cls :
         {TrafficClass::kRealTime, TrafficClass::kAssured,
          TrafficClass::kBestEffort}) {
      const auto& stats = sink.by_class(cls);
      if (be_load == 0.4) {
        reporter.metric("mean_delay_" + to_string(cls) + "_high_load",
                        stats.delay_slots.mean(), "slots");
      }
      classes.add_row({be_load, to_string(cls),
                       static_cast<std::int64_t>(stats.delivered),
                       stats.delay_slots.mean(),
                       stats.delay_slots.quantile(0.99),
                       static_cast<std::int64_t>(stats.deadline_misses)});
    }
  }
  bench::emit(classes, csv);

  // --- Figure 2 gateway: reservation admission. ---
  util::Table gateway("E10b  gateway reservations (Figure 2 scenario)",
                      {"direction", "requested rate", "verdict", "reason"});
  phy::Topology topology = bench::ring_room(8);
  wrtring::Config config;
  config.default_quota = {1, 1};
  wrtring::Engine engine(&topology, config, 17);
  if (!engine.init().ok()) return 1;
  engine.set_max_sat_time_goal(
      analysis::sat_time_bound(engine.ring_params()) + 20);
  diffserv::EdgePolicy policy;
  policy.premium_rate = 0.08;
  diffserv::LanModel lan(policy, 2, 1.0, 256);
  wrtring::Gateway g1(&engine, &lan.links(),
                      engine.virtual_ring().station_at(0));

  const auto record = [&](const char* direction, double rate,
                          const util::Result<wrtring::Reservation>& result) {
    gateway.add_row({std::string(direction), rate,
                     std::string(result.ok() ? "accepted" : "rejected"),
                     std::string(result.ok()
                                     ? "-"
                                     : result.error().message)});
  };
  record("LAN->ring", 0.02, g1.reserve_lan_to_ring(1, 0.02));
  record("LAN->ring", 0.05, g1.reserve_lan_to_ring(2, 0.05));
  record("LAN->ring", 0.50, g1.reserve_lan_to_ring(3, 0.50));
  record("ring->LAN", 0.05, g1.reserve_ring_to_lan(4, 0.05));
  record("ring->LAN", 0.05, g1.reserve_ring_to_lan(5, 0.05));
  bench::emit(gateway, csv);
  return 0;
}
