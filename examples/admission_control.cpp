// Admission control walkthrough: how the ring turns application QoS
// requirements (period / burst / deadline) into per-station quotas it can
// actually honour — and how it says no.
//
// Sessions arrive one by one; the controller recomputes an FDDI-style
// allocation (normalized-proportional here) over every admitted session
// plus the newcomer and accepts only if Theorem 3 certifies every deadline.
//
//   $ build/examples/admission_control
#include <iostream>

#include "analysis/bounds.hpp"
#include "phy/topology.hpp"
#include "util/table.hpp"
#include "wrtring/admission.hpp"
#include "wrtring/engine.hpp"

int main() {
  using namespace wrt;

  phy::Topology topology(phy::placement::circle(8, 10.0),
                         phy::RadioParams{18.0, 0.0});
  wrtring::Engine engine(&topology, wrtring::Config{}, 21);
  if (!engine.init().ok()) return 1;

  wrtring::AdmissionController controller(
      &engine, analysis::AllocationScheme::kNormalizedProportional,
      /*l_budget=*/10, /*k_per_station=*/1);

  struct Ask {
    const char* label;
    wrtring::SessionRequest request;
  };
  const Ask asks[] = {
      {"voice @ st.0 (1 pkt / 50 slots, D=600)", {1, 0, 50, 1, 600}},
      {"video @ st.2 (3 pkt / 100 slots, D=800)", {2, 2, 100, 3, 800}},
      {"sensor @ st.5 (1 pkt / 400 slots, D=2000)", {3, 5, 400, 1, 2000}},
      {"hard control @ st.6 (1 pkt / 30 slots, D=90)", {4, 6, 30, 1, 90}},
      {"2nd video @ st.3 (4 pkt / 80 slots, D=500)", {5, 3, 80, 4, 500}},
  };

  util::Table table("admission decisions (budget: 10 RT slots per round)",
                    {"session", "verdict", "granted l", "guaranteed delay",
                     "asked deadline"});
  for (const Ask& ask : asks) {
    const auto verdict = controller.admit(ask.request);
    if (verdict.ok()) {
      const auto delay = controller.guaranteed_delay(ask.request.flow);
      table.add_row({std::string(ask.label), std::string("ADMIT"),
                     static_cast<std::int64_t>(verdict.value().l),
                     delay.ok() ? delay.value() : -1,
                     ask.request.deadline_slots});
    } else {
      table.add_row({std::string(ask.label),
                     std::string("REJECT: " + verdict.error().message),
                     std::int64_t{0}, std::int64_t{-1},
                     ask.request.deadline_slots});
    }
  }
  table.print(std::cout);

  std::cout << "\nresulting per-station quotas:\n";
  for (std::size_t p = 0; p < engine.virtual_ring().size(); ++p) {
    const NodeId node = engine.virtual_ring().station_at(p);
    const Quota quota = engine.station_quota(node);
    std::cout << "  station " << node << ": l=" << quota.l
              << " k=" << quota.k << '\n';
  }

  // Drive the admitted sessions and verify zero misses against the
  // guaranteed (not just asked) deadlines.
  for (const Ask& ask : asks) {
    if (!controller.has_session(ask.request.flow)) continue;
    const auto guaranteed = controller.guaranteed_delay(ask.request.flow);
    traffic::FlowSpec spec;
    spec.id = ask.request.flow;
    spec.src = ask.request.station;
    spec.dst = static_cast<NodeId>((ask.request.station + 4) % 8);
    spec.cls = TrafficClass::kRealTime;
    spec.kind = traffic::ArrivalKind::kCbr;
    spec.period_slots = static_cast<double>(ask.request.period_slots) /
                        static_cast<double>(ask.request.packets_per_period);
    spec.deadline_slots = guaranteed.value_or(1000) + 10;
    engine.add_source(spec);
  }
  engine.run_slots(20000);
  const auto& rt = engine.stats().sink.by_class(TrafficClass::kRealTime);
  std::cout << "\nafter 20,000 slots: " << rt.delivered
            << " RT packets delivered, " << rt.deadline_misses
            << " guaranteed deadlines missed, worst delay "
            << rt.delay_slots.max() << " slots\n";
  return rt.deadline_misses == 0 ? 0 : 1;
}
