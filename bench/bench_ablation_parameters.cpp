// E12 — ablations over the design parameters the paper leaves open:
//  (a) the RAP cost: T_rap inflates every bound by one term per round —
//      openness to joiners trades directly against guaranteed latency;
//  (b) the Diffserv split k1/k2: how reserving Assured quota shifts delay
//      between the two non-real-time classes;
//  (c) quota allocation schemes (the FDDI-style algorithms the paper points
//      to): how many flow sets each scheme can admit.
#include "bench/bench_common.hpp"

#include "analysis/allocation.hpp"
#include "analysis/bounds.hpp"
#include "wrtring/engine.hpp"

int main(int argc, char** argv) {
  using namespace wrt;
  bench::Reporter reporter("ablation_parameters", argc, argv);
  reporter.seed(31);
  reporter.seed(37);
  reporter.seed(43);
  reporter.seed(99);
  const bool csv = reporter.csv();
  constexpr std::size_t kN = 12;

  // --- (a) T_rap ablation ---
  util::Table rap("E12a  T_rap ablation (N = 12, l=k=1, moderate load)",
                  {"T_ear", "T_update", "Thm-1 bound", "mean rotation",
                   "RT mean delay", "throughput"});
  const std::pair<std::int64_t, std::int64_t> rap_settings[] = {
      {0, 0}, {3, 1}, {4, 2}, {8, 4}, {16, 8}};
  for (const auto& [t_ear, t_update] : rap_settings) {
    phy::Topology topology = bench::ring_room(kN);
    wrtring::Config config;
    config.default_quota = {1, 1};
    if (t_ear > 0) {
      config.rap_policy = wrtring::RapPolicy::kRotating;
      config.t_ear_slots = t_ear;
      config.t_update_slots = t_update;
    }
    wrtring::Engine engine(&topology, config, 31);
    if (!engine.init().ok()) return 1;
    for (NodeId node = 0; node < kN; ++node) {
      traffic::FlowSpec spec;
      spec.id = node;
      spec.src = node;
      spec.dst = static_cast<NodeId>((node + kN / 2) % kN);
      spec.cls = TrafficClass::kRealTime;
      spec.kind = traffic::ArrivalKind::kPoisson;
      spec.rate_per_slot = 0.02;
      spec.deadline_slots = 1 << 20;
      engine.add_source(spec);
    }
    engine.run_slots(reporter.slots(20000));
    rap.add_row({t_ear, t_update,
                 analysis::sat_time_bound(engine.ring_params()),
                 engine.stats().sat_rotation_slots.mean(),
                 engine.stats()
                     .sink.by_class(TrafficClass::kRealTime)
                     .delay_slots.mean(),
                 engine.stats().sink.throughput(0, engine.now())});
  }
  bench::emit(rap, csv);

  // --- (b) k1/k2 split ablation ---
  util::Table split("E12b  Diffserv split ablation (k = 4, saturated A+BE)",
                    {"k1 (assured)", "k2 (BE)", "assured thpt", "BE thpt",
                     "assured mean delay", "BE mean delay"});
  for (const std::uint32_t k1 : {0u, 1u, 2u, 3u, 4u}) {
    phy::Topology topology = bench::ring_room(kN);
    wrtring::Config config;
    config.default_quota = {0, 4};
    config.k1_assured = k1;
    wrtring::Engine engine(&topology, config, 37);
    if (!engine.init().ok()) return 1;
    for (NodeId node = 0; node < kN; ++node) {
      traffic::FlowSpec assured;
      assured.id = node;
      assured.src = node;
      assured.dst = static_cast<NodeId>((node + 1) % kN);
      assured.cls = TrafficClass::kAssured;
      engine.add_saturated_source(assured, 8);
      traffic::FlowSpec be = assured;
      be.id = static_cast<FlowId>(node + kN);
      be.cls = TrafficClass::kBestEffort;
      engine.add_saturated_source(be, 8);
    }
    engine.run_slots(reporter.slots(12000));
    const auto& sink = engine.stats().sink;
    const double slots = static_cast<double>(engine.now_slots());
    split.add_row(
        {static_cast<std::int64_t>(k1), static_cast<std::int64_t>(4 - k1),
         static_cast<double>(
             sink.by_class(TrafficClass::kAssured).delivered) /
             slots,
         static_cast<double>(
             sink.by_class(TrafficClass::kBestEffort).delivered) /
             slots,
         sink.by_class(TrafficClass::kAssured).delay_slots.mean(),
         sink.by_class(TrafficClass::kBestEffort).delay_slots.mean()});
  }
  bench::emit(split, csv);

  // --- (d) control-loss resilience with auto-rejoin ---
  // The Section-3.3 worry quantified: sweep the per-hop SAT loss rate and
  // measure how often the Section-2.5 machinery fires, how much membership
  // the cut-out semantics cost, and what goodput survives when cut-out
  // stations rejoin through the RAP.
  util::Table lossy(
      "E12d  SAT-loss-rate sweep with auto-rejoin (N = 10, 60k slots)",
      {"loss prob/hop", "losses detected", "cut-outs", "rebuilds", "rejoins",
       "final ring size", "RT delivered"});
  for (const double loss : {0.0, 0.0005, 0.002, 0.008}) {
    phy::Topology topology = bench::ring_room(10);
    wrtring::Config config;
    config.rap_policy = wrtring::RapPolicy::kRotating;
    config.auto_rejoin = true;
    config.channel.sat = fault::GeParams::iid(loss);
    wrtring::Engine engine(&topology, config, 43);
    if (!engine.init().ok()) return 1;
    for (NodeId node = 0; node < 10; ++node) {
      traffic::FlowSpec spec;
      spec.id = node;
      spec.src = node;
      spec.dst = static_cast<NodeId>((node + 5) % 10);
      spec.cls = TrafficClass::kRealTime;
      spec.kind = traffic::ArrivalKind::kCbr;
      spec.period_slots = 80.0;
      spec.deadline_slots = 1 << 20;
      engine.add_source(spec);
    }
    engine.run_slots(reporter.slots(60000));
    const auto& stats = engine.stats();
    if (loss == 0.008) {
      reporter.metric("cutouts_at_loss_0p008",
                      static_cast<double>(stats.sat_recoveries), "cut-outs");
      reporter.metric("rejoins_at_loss_0p008",
                      static_cast<double>(stats.joins_completed), "joins");
    }
    lossy.add_row(
        {loss, static_cast<std::int64_t>(stats.sat_losses_detected),
         static_cast<std::int64_t>(stats.sat_recoveries),
         static_cast<std::int64_t>(stats.ring_rebuilds),
         static_cast<std::int64_t>(stats.joins_completed),
         static_cast<std::int64_t>(engine.virtual_ring().size()),
         static_cast<std::int64_t>(
             stats.sink.by_class(TrafficClass::kRealTime).delivered)});
  }
  bench::emit(lossy, csv);

  // --- (c) allocation scheme comparison ---
  util::Table alloc(
      "E12c  allocation schemes: admitted flow sets (100 random sets)",
      {"scheme", "admitted", "rejected (infeasible)", "rejected (overload)"});
  for (const auto scheme : {analysis::AllocationScheme::kEqualPartition,
                            analysis::AllocationScheme::kProportional,
                            analysis::AllocationScheme::kNormalizedProportional}) {
    util::RngStream rng(99);
    int admitted = 0, infeasible = 0, overload = 0;
    const int trials = reporter.smoke() ? 20 : 100;
    for (int trial = 0; trial < trials; ++trial) {
      analysis::AllocationInput input;
      input.ring_latency_slots = kN;
      input.t_rap_slots = 0;
      input.k_per_station = 1;
      input.total_l_budget = 12;
      for (std::size_t station = 0; station < kN; ++station) {
        if (rng.bernoulli(0.6)) {
          analysis::RtRequirement flow;
          flow.station = station;
          flow.period_slots = rng.uniform_int(std::int64_t{80}, 400);
          flow.packets_per_period = rng.uniform_int(std::int64_t{1}, 3);
          flow.deadline_slots = rng.uniform_int(std::int64_t{150}, 700);
          input.flows.push_back(flow);
        }
      }
      const auto params = analysis::allocate(scheme, input, kN);
      if (!params.ok()) {
        ++overload;
        continue;
      }
      if (analysis::check_feasibility(params.value(), input.flows).ok()) {
        ++admitted;
      } else {
        ++infeasible;
      }
    }
    alloc.add_row({analysis::to_string(scheme),
                   static_cast<std::int64_t>(admitted),
                   static_cast<std::int64_t>(infeasible),
                   static_cast<std::int64_t>(overload)});
  }
  bench::emit(alloc, csv);
  return 0;
}
