// E7 — Section 3.3 / Eq (7): control-signal round-trip comparison under the
// same scenario (same stations, same reserved bandwidth, same control
// transfer time T_proc + T_prop).
//
// Analytic series: token needs 2 (N-1)(Tproc+Tprop) + T_rap, the SAT needs
// N (Tproc+Tprop) + T_rap per empty-network round.  Simulated series:
// idle-network rotation means from both engines; and with identical
// reserved bandwidth (sum H = sum (l + k)) the worst-case bounds compare as
// Eq (7) vs Theorem 1 — WRT-Ring supports strictly tighter deadlines.
#include "bench/bench_common.hpp"

#include "analysis/allocation.hpp"
#include "analysis/bounds.hpp"
#include "tpt/allocation.hpp"
#include "tpt/engine.hpp"
#include "wrtring/engine.hpp"

int main(int argc, char** argv) {
  using namespace wrt;
  bench::Reporter reporter("round_trip_comparison", argc, argv);
  reporter.seed(1);
  const bool csv = reporter.csv();

  util::Table idle("E7a  empty-network control round trip (T_rap = 0)",
                   {"N", "t_sig", "SAT analytic", "SAT measured",
                    "token analytic", "token measured", "token/SAT"});
  for (const std::size_t n : {4u, 8u, 16u, 32u}) {
    for (const std::int64_t t_sig : {1, 2, 4}) {
      phy::Topology ring_topology = bench::ring_room(n);
      wrtring::Config ring_config;
      ring_config.sat_hop_latency_slots = t_sig;
      wrtring::Engine ring(&ring_topology, ring_config, 1);
      if (!ring.init().ok()) return 1;
      ring.run_slots(reporter.slots(static_cast<std::int64_t>(n) * t_sig * 120));

      phy::Topology tree_topology = bench::dense_room(n);
      tpt::TptConfig tpt_config;
      tpt_config.t_proc_prop_slots = t_sig;
      tpt::TptEngine token(&tree_topology, tpt_config, 1);
      if (!token.init().ok()) return 1;
      token.run_slots(reporter.slots(static_cast<std::int64_t>(n) * t_sig * 240));

      const double sat_analytic = analysis::wrt_signal_round_trip(
          static_cast<std::int64_t>(n), static_cast<double>(t_sig), 0.0);
      const double token_analytic = analysis::tpt_signal_round_trip(
          static_cast<std::int64_t>(n), static_cast<double>(t_sig), 0.0);
      if (n == 32 && t_sig == 1) {
        reporter.metric("sat_round_trip_n32", ring.stats().sat_rotation_slots.mean(),
                        "slots");
        reporter.metric("token_round_trip_n32",
                        token.stats().token_rotation_slots.mean(), "slots");
      }
      idle.add_row({static_cast<std::int64_t>(n), t_sig, sat_analytic,
                    ring.stats().sat_rotation_slots.mean(), token_analytic,
                    token.stats().token_rotation_slots.mean(),
                    token_analytic / sat_analytic});
    }
  }
  bench::emit(idle, csv);

  util::Table bounds(
      "E7b  worst-case round bounds under equal reserved bandwidth",
      {"N", "sum quota", "WRT Theorem-1 bound", "TPT Eq(7) round bound",
       "tightest deadline WRT (=bound)", "tightest deadline TPT (=2*bound)"});
  for (const std::size_t n : {4u, 8u, 16u, 32u, 64u}) {
    const std::int64_t per_station = 2;  // l + k = H_e
    analysis::RingParams ring_params;
    ring_params.ring_latency_slots = static_cast<std::int64_t>(n);
    ring_params.t_rap_slots = 6;
    ring_params.quotas.assign(n, Quota{1, 1});
    analysis::TptParams tpt_params;
    tpt_params.h_sync_slots.assign(n, per_station);
    tpt_params.t_proc_plus_prop_slots = 1.0;
    tpt_params.t_rap_slots = 6;
    const double tpt_round = analysis::tpt_round_bound(tpt_params);
    bounds.add_row({static_cast<std::int64_t>(n),
                    static_cast<std::int64_t>(n) * per_station,
                    analysis::sat_time_bound(ring_params), tpt_round,
                    analysis::sat_time_bound(ring_params),
                    2.0 * tpt_round});
  }
  bench::emit(bounds, csv);

  // E7c: the bound difference as an *admission* experiment.  Identical
  // flow sets (1 packet / 200 slots per station) with the deadline swept
  // downward; both protocols get the same budget and the same allocator.
  // WRT-Ring keeps certifying deadlines after TPT must refuse — the
  // operational meaning of "more stringent QoS timing requirements".
  util::Table admission(
      "E7c  tightest admissible deadline, identical flow sets (N = 8)",
      {"deadline (slots)", "WRT-Ring admits", "TPT admits"});
  constexpr std::int64_t kStations = 8;
  for (std::int64_t deadline = 320; deadline >= 40; deadline -= 40) {
    std::vector<analysis::RtRequirement> flows;
    for (std::size_t s = 0; s < kStations; ++s) {
      flows.push_back({s, 200, 1, deadline});
    }
    analysis::AllocationInput ring_input;
    ring_input.ring_latency_slots = kStations;
    ring_input.k_per_station = 0;
    ring_input.total_l_budget = kStations;
    ring_input.flows = flows;
    bool wrt_ok = false;
    if (auto params = analysis::allocate(
            analysis::AllocationScheme::kEqualPartition, ring_input,
            kStations);
        params.ok()) {
      wrt_ok = analysis::check_feasibility(params.value(), flows).ok();
    }
    tpt::TptAllocationInput tpt_input;
    tpt_input.n_stations = kStations;
    tpt_input.total_h_budget = kStations;
    tpt_input.flows = flows;
    const bool tpt_ok =
        tpt::allocate_tpt(analysis::AllocationScheme::kEqualPartition,
                          tpt_input)
            .ok();
    admission.add_row({deadline, std::string(wrt_ok ? "yes" : "no"),
                       std::string(tpt_ok ? "yes" : "no")});
  }
  bench::emit(admission, csv);
  return 0;
}
