// wrt_chaos: randomized fault-plan soak with a recovery SLO.
//
// For each seed this runner builds a 2-hop-range circle network plus a pool
// of parked joiner candidates, attaches a seed-randomized bursty
// Gilbert–Elliott channel (data + SAT + control), generates a survivable
// random FaultPlan (crashes, stalls, leaves, link degrades/breaks,
// partitions, one-shot SAT/handshake drops, forced joins — all healed
// before the final tenth of the horizon), applies it through the Scenario
// layer with the invariant auditor installed, and then holds the run to a
// recovery service-level objective:
//
//   * liveness   — at the horizon the SAT circulates, or the alive
//                  connectivity graph provably admits no ring;
//   * SLO        — detection latency (MTTD) stays within the analytic
//                  SAT_TIMER window (staleness + Theorem-1 timeout), and
//                  after forced rejoins every alive, reachable station is
//                  back in the ring within a bounded number of RAP rounds;
//   * integrity  — the auditor records zero violations and Engine::
//                  check_invariants() holds at the horizon.  Both run the
//                  same ten named structural checks, frame-conservation
//                  (transmissions == delivered + losses + drops +
//                  in-flight) among them, so nothing leaks across the
//                  fault storm; the auditor adds the Theorem 1/2 oracles.
//                  Its 64-slot cadence runs in audit builds only
//                  (scripts/check.sh --asan); release builds audit at
//                  membership events.
//
//   $ build/tools/wrt_chaos                       # default 16-seed matrix
//   $ build/tools/wrt_chaos --seeds 7 --print-plan
//   $ build/tools/wrt_chaos --plan storm.fplan --seeds 1,2,3
//   $ build/tools/wrt_chaos --json > chaos.json
//
// --flap-matrix switches to the RecoveryFsm A/B experiment instead: every
// seed draws a flap-only plan (periodic link break/restore cycling, the
// classic ERPS stimulus) and runs it twice — once with the all-defaults
// recovery config (no guard, no WTR) and once with guard + WTR + revertive
// enabled.  The gates assert what the FSM is for: zero spurious cut-outs
// under the guard, strictly fewer ring re-formations than the baseline,
// and a p99 MTTR no worse.  --json-dir=DIR emits the comparison as
// schema-v1 BENCH_recovery_fsm.json (scripts/validate_bench_json.py).
//
// Exit status: 0 when every seed meets the SLO, 1 otherwise, 2 on usage
// errors.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "bench/bench_common.hpp"
#include "check/invariants.hpp"
#include "fault/fault_plan.hpp"
#include "fault/gilbert_elliott.hpp"
#include "phy/topology.hpp"
#include "ring/virtual_ring.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "wrtring/engine.hpp"
#include "wrtring/scenario.hpp"

namespace wrt {
namespace {

struct SeedResult {
  std::uint64_t seed = 0;
  bool passed = true;
  std::vector<std::string> failures;

  // Recovery metrics.
  double mttd_mean_slots = 0.0;
  double mttd_max_slots = 0.0;
  double mttr_mean_slots = 0.0;
  double mttr_max_slots = 0.0;
  std::uint64_t sat_losses = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t control_lost = 0;
  std::uint64_t join_retries = 0;
  std::uint64_t joins_abandoned = 0;
  std::uint64_t frames_lost_link = 0;
  std::uint64_t frames_lost_rebuild = 0;
  std::uint64_t frames_lost_churn = 0;
  std::uint64_t auditor_violations = 0;
  std::int64_t reconverge_slots = -1;  ///< horizon -> full membership
};

struct Options {
  std::vector<std::int64_t> seeds;
  std::size_t n = 12;
  std::size_t parked = 4;
  std::int64_t horizon_slots = 8000;
  std::size_t plan_events = 8;
  std::string plan_path;  ///< non-empty: fixed plan instead of random
  bool print_plan = false;
  bool json = false;

  // --flap-matrix mode (RecoveryFsm A/B experiment).
  bool flap_matrix = false;
  std::size_t flap_events = 4;
  std::int64_t guard_slots = 32;
  std::int64_t wtr_slots = 128;
};

traffic::FlowSpec rt_flow(FlowId id, NodeId src, std::size_t n) {
  traffic::FlowSpec spec;
  spec.id = id;
  spec.src = src;
  spec.dst = static_cast<NodeId>((src + n / 2) % n);
  spec.cls = TrafficClass::kRealTime;
  spec.kind = traffic::ArrivalKind::kCbr;
  spec.period_slots = 40.0;
  return spec;
}

/// Seed-randomized ambient channel: mild bursty data loss everywhere, a
/// whiff of SAT and control loss so every recovery path stays exercised.
fault::ChannelConfig random_channel(std::uint64_t seed) {
  util::RngStream rng(seed, 0xC0FFEEu);
  fault::ChannelConfig channel;
  channel.data = fault::GeParams::bursty(
      0.005 + 0.02 * rng.uniform(),
      1.0 + std::floor(rng.uniform() * 16.0));
  channel.sat = fault::GeParams::iid(0.002 + 0.006 * rng.uniform());
  channel.control = fault::GeParams::iid(0.01 + 0.05 * rng.uniform());
  return channel;
}

SeedResult run_seed(std::uint64_t seed, const Options& options,
                    const fault::FaultPlan* fixed_plan) {
  SeedResult result;
  result.seed = seed;
  const auto fail = [&](std::string why) {
    result.passed = false;
    result.failures.push_back(std::move(why));
  };

  phy::Topology topology = phy::ring_room(options.n);
  std::vector<NodeId> parked;
  for (std::size_t i = 0; i < options.parked; ++i) {
    const phy::Vec2 base =
        topology.position(static_cast<NodeId>((i * 3) % options.n));
    const NodeId id = topology.add_node(base * 1.08);
    topology.set_alive(id, false);  // parked until the plan joins them
    parked.push_back(id);
  }

  wrtring::Config config;
  config.rap_policy = wrtring::RapPolicy::kRotating;
  config.auto_rejoin = true;
  config.channel = random_channel(seed);
  wrtring::Engine engine(&topology, config, seed);
  const auto init = engine.init();
  if (!init.ok()) {
    fail("init: " + init.error().message);
    return result;
  }
  for (NodeId n = 0; n < static_cast<NodeId>(options.n); ++n) {
    engine.add_source(rt_flow(n, n, options.n));
  }

  // The analytic recovery deadline for the largest ring this run can have:
  // SAT_TIMER staleness + Theorem-1 timeout, plus the modelled re-formation
  // downtime, plus one RAP.  Everything the SLO asserts scales from this.
  const std::int64_t bound0 = analysis::sat_time_bound(engine.ring_params());
  const std::int64_t rebuild_cost =
      config.rebuild_base_slots +
      config.rebuild_per_station_slots *
          static_cast<std::int64_t>(options.n + options.parked);
  const std::int64_t deadline_slots =
      4 * bound0 + rebuild_cost + config.t_rap_slots();

  fault::FaultPlan plan;
  if (fixed_plan != nullptr) {
    plan = *fixed_plan;
  } else {
    fault::FaultPlan::RandomOptions plan_options;
    plan_options.n_stations = options.n;
    plan_options.parked = parked;
    plan_options.horizon_slots = options.horizon_slots;
    plan_options.events = options.plan_events;
    plan = fault::FaultPlan::random(seed, plan_options);
  }
  if (options.print_plan && !options.json) {
    std::printf("# seed %llu\n%s\n",
                static_cast<unsigned long long>(seed),
                plan.to_text().c_str());
  }

  check::InvariantAuditor auditor(engine);
  auditor.install(engine, 64);

  wrtring::Scenario scenario;
  scenario.apply_plan(plan);
  (void)scenario.run(engine, topology, options.horizon_slots);

  // Liveness at the horizon: the plan healed every disturbance by 9/10 of
  // the horizon, so either the SAT circulates or no ring is possible.
  // The ambient channel keeps losing SATs forever, so a point-in-time state
  // sample can land mid-recovery; the SLO is "circulates again within the
  // analytic deadline", not "circulating at this exact slot".
  const auto circulating = [&] {
    return engine.sat_state() == wrtring::SatState::kInTransit ||
           engine.sat_state() == wrtring::SatState::kHeld;
  };
  const auto circulates_within = [&](std::int64_t budget) {
    for (std::int64_t i = 0; i < budget && !circulating(); ++i) {
      engine.step();
    }
    return circulating();
  };
  if (!circulates_within(deadline_slots)) {
    const auto attempt =
        ring::build_ring_over(topology, ring::largest_component(topology));
    if (attempt.ok()) {
      fail("SAT did not recover within " + std::to_string(deadline_slots) +
           " slots of the horizon despite a buildable ring");
    }
  }

  // Forced reconvergence: every alive station re-enters the ring (or
  // legitimately exhausts its join attempts) within a bounded number of
  // deadline windows.
  const std::int64_t reconverge_start = engine.now_slots();
  for (int round = 0; round < 8; ++round) {
    std::vector<NodeId> missing;
    for (NodeId n = 0; n < topology.node_count(); ++n) {
      if (topology.alive(n) && !engine.station_stalled(n) &&
          !engine.virtual_ring().contains(n)) {
        missing.push_back(n);
      }
    }
    if (missing.empty()) break;
    for (const NodeId n : missing) engine.request_join(n, {1, 1});
    engine.run_slots(deadline_slots);
  }
  result.reconverge_slots = engine.now_slots() - reconverge_start;
  for (NodeId n = 0; n < topology.node_count(); ++n) {
    if (topology.alive(n) && !engine.station_stalled(n) &&
        !engine.virtual_ring().contains(n)) {
      fail("station " + std::to_string(n) +
           " still outside the ring after forced rejoins");
    }
  }
  if (!circulates_within(deadline_slots)) {
    fail("SAT not circulating within " + std::to_string(deadline_slots) +
         " slots after the reconvergence tail");
  }

  // Detection SLO: a SAT_TIMER can be stale by up to one full rotation when
  // the loss happens, so MTTD is bounded by twice the Theorem-1 window
  // (plus the hop granularity).
  const auto& stats = engine.stats();
  result.sat_losses = stats.sat_losses_detected;
  result.recoveries = stats.sat_recoveries;
  result.rebuilds = stats.ring_rebuilds;
  result.control_lost = stats.control_messages_lost;
  result.join_retries = stats.join_retries;
  result.joins_abandoned = stats.joins_abandoned;
  result.frames_lost_link = stats.frames_lost_link;
  result.frames_lost_rebuild = stats.frames_lost_rebuild;
  result.frames_lost_churn = stats.frames_lost_churn;
  if (stats.sat_loss_detection_slots.count() > 0) {
    result.mttd_mean_slots = stats.sat_loss_detection_slots.mean();
    result.mttd_max_slots = stats.sat_loss_detection_slots.max();
    if (result.mttd_max_slots > static_cast<double>(2 * bound0 + 8)) {
      fail("MTTD " + std::to_string(result.mttd_max_slots) +
           " slots exceeds the analytic window " +
           std::to_string(2 * bound0 + 8));
    }
  }
  if (stats.recovery_total_slots.count() > 0) {
    result.mttr_mean_slots = stats.recovery_total_slots.mean();
    result.mttr_max_slots = stats.recovery_total_slots.max();
  }

  // Integrity: auditor clean, invariants (incl. the accounting identity).
  result.auditor_violations = auditor.total_violations();
  if (!auditor.clean()) {
    fail("auditor recorded " + std::to_string(auditor.total_violations()) +
         " violations (first: " + auditor.violations().front().check + ": " +
         auditor.violations().front().detail + ")");
  }
  if (const auto status = engine.check_invariants(); !status.ok()) {
    fail("check_invariants: " + status.error().message);
  }
  return result;
}

// --- flap matrix (RecoveryFsm A/B) ----------------------------------------

/// One seed under one recovery config: the flap plan runs to the horizon
/// (clean ambient channel, so every disturbance is the flapping link), the
/// SAT must circulate again within the analytic deadline, and the auditor
/// (including the FSM checks) must stay clean.
struct FlapVariant {
  bool passed = true;
  std::vector<std::string> failures;
  std::uint64_t spurious_cutouts = 0;
  std::uint64_t reformations = 0;  ///< cut-outs + full ring rebuilds
  std::uint64_t stale_rec_suppressed = 0;
  std::uint64_t wtr_holdoffs = 0;
  std::vector<double> mttr_slots;
};

FlapVariant run_flap_variant(std::uint64_t seed, const Options& options,
                             const fault::FaultPlan& plan, bool with_fsm) {
  FlapVariant result;
  const auto fail = [&](std::string why) {
    result.passed = false;
    result.failures.push_back(std::move(why));
  };

  phy::Topology topology = phy::ring_room(options.n);
  wrtring::Config config;
  config.rap_policy = wrtring::RapPolicy::kRotating;
  config.auto_rejoin = true;
  if (with_fsm) {
    config.guard_slots = options.guard_slots;
    config.wtr_slots = options.wtr_slots;
    config.revertive = true;
  }
  wrtring::Engine engine(&topology, config, seed);
  const auto init = engine.init();
  if (!init.ok()) {
    fail("init: " + init.error().message);
    return result;
  }
  for (NodeId n = 0; n < static_cast<NodeId>(options.n); ++n) {
    engine.add_source(rt_flow(n, n, options.n));
  }

  check::InvariantAuditor auditor(engine);
  auditor.install(engine, 64);

  wrtring::Scenario scenario;
  scenario.apply_plan(plan);
  (void)scenario.run(engine, topology, options.horizon_slots);

  // Liveness tail: the plan healed every flap by 9/10 of the horizon (and
  // WTR hold-offs may still be draining), so give the ring one analytic
  // deadline plus the configured hold-off to circulate again.
  const std::int64_t bound0 = analysis::sat_time_bound(engine.ring_params());
  const std::int64_t rebuild_cost =
      config.rebuild_base_slots +
      config.rebuild_per_station_slots * static_cast<std::int64_t>(options.n);
  const std::int64_t deadline_slots = 4 * bound0 + rebuild_cost +
                                      config.t_rap_slots() +
                                      options.wtr_slots;
  const auto circulating = [&] {
    return engine.sat_state() == wrtring::SatState::kInTransit ||
           engine.sat_state() == wrtring::SatState::kHeld;
  };
  for (std::int64_t i = 0; i < deadline_slots && !circulating(); ++i) {
    engine.step();
  }
  if (!circulating()) {
    fail("SAT not circulating within " + std::to_string(deadline_slots) +
         " slots after the flap storm");
  }

  const auto& stats = engine.stats();
  result.spurious_cutouts = stats.spurious_cutouts;
  result.reformations = stats.cut_outs + stats.ring_rebuilds;
  const wrtring::RecoveryFsm& fsm = engine.recovery_fsm();
  result.stale_rec_suppressed = fsm.stale_rec_suppressed();
  result.wtr_holdoffs = fsm.wtr_holdoffs();
  result.mttr_slots = fsm.mttr_samples();

  if (!auditor.clean()) {
    fail("auditor recorded " + std::to_string(auditor.total_violations()) +
         " violations (first: " + auditor.violations().front().check + ": " +
         auditor.violations().front().detail + ")");
  }
  if (const auto status = engine.check_invariants(); !status.ok()) {
    fail("check_invariants: " + status.error().message);
  }
  return result;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(std::min<double>(
      std::ceil(p * static_cast<double>(samples.size())),
      static_cast<double>(samples.size())));
  return samples[rank == 0 ? 0 : rank - 1];
}

int run_flap_matrix(const Options& options, bench::Reporter& reporter) {
  std::uint64_t base_spurious = 0, fsm_spurious = 0;
  std::uint64_t base_reform = 0, fsm_reform = 0;
  std::uint64_t suppressed = 0, holdoffs = 0;
  std::vector<double> base_mttr, fsm_mttr;
  bool all_clean = true;

  std::printf("flap matrix: %zu flaps/seed, guard=%lld wtr=%lld\n",
              options.flap_events,
              static_cast<long long>(options.guard_slots),
              static_cast<long long>(options.wtr_slots));
  for (const std::int64_t seed : options.seeds) {
    fault::FaultPlan::RandomOptions plan_options;
    plan_options.n_stations = options.n;
    plan_options.horizon_slots = options.horizon_slots;
    plan_options.events = 0;  // flap-only: clean A/B attribution
    plan_options.flap_events = options.flap_events;
    const fault::FaultPlan plan =
        fault::FaultPlan::random(static_cast<std::uint64_t>(seed),
                                 plan_options);
    if (options.print_plan) {
      std::printf("# seed %lld\n%s\n", static_cast<long long>(seed),
                  plan.to_text().c_str());
    }

    const FlapVariant base = run_flap_variant(
        static_cast<std::uint64_t>(seed), options, plan, false);
    const FlapVariant fsm = run_flap_variant(
        static_cast<std::uint64_t>(seed), options, plan, true);
    reporter.seed(static_cast<std::uint64_t>(seed));

    std::printf(
        "seed %-4lld base: spurious %3llu reform %3llu mttr p99 %7.1f | "
        "fsm: spurious %3llu reform %3llu mttr p99 %7.1f "
        "(suppressed %llu holdoffs %llu)%s\n",
        static_cast<long long>(seed),
        static_cast<unsigned long long>(base.spurious_cutouts),
        static_cast<unsigned long long>(base.reformations),
        percentile(base.mttr_slots, 0.99),
        static_cast<unsigned long long>(fsm.spurious_cutouts),
        static_cast<unsigned long long>(fsm.reformations),
        percentile(fsm.mttr_slots, 0.99),
        static_cast<unsigned long long>(fsm.stale_rec_suppressed),
        static_cast<unsigned long long>(fsm.wtr_holdoffs),
        base.passed && fsm.passed ? "" : "  !!");
    for (const FlapVariant* v : {&base, &fsm}) {
      for (const std::string& why : v->failures) {
        std::printf("         !! %s\n", why.c_str());
      }
    }

    all_clean = all_clean && base.passed && fsm.passed;
    base_spurious += base.spurious_cutouts;
    fsm_spurious += fsm.spurious_cutouts;
    base_reform += base.reformations;
    fsm_reform += fsm.reformations;
    suppressed += fsm.stale_rec_suppressed;
    holdoffs += fsm.wtr_holdoffs;
    base_mttr.insert(base_mttr.end(), base.mttr_slots.begin(),
                     base.mttr_slots.end());
    fsm_mttr.insert(fsm_mttr.end(), fsm.mttr_slots.begin(),
                    fsm.mttr_slots.end());
  }

  const double base_p50 = percentile(base_mttr, 0.50);
  const double base_p99 = percentile(base_mttr, 0.99);
  const double fsm_p50 = percentile(fsm_mttr, 0.50);
  const double fsm_p99 = percentile(fsm_mttr, 0.99);
  reporter.metric("baseline_spurious_cutouts",
                  static_cast<double>(base_spurious), "count");
  reporter.metric("fsm_spurious_cutouts", static_cast<double>(fsm_spurious),
                  "count");
  reporter.metric("baseline_reformations", static_cast<double>(base_reform),
                  "count");
  reporter.metric("fsm_reformations", static_cast<double>(fsm_reform),
                  "count");
  reporter.metric("stale_rec_suppressed", static_cast<double>(suppressed),
                  "count");
  reporter.metric("wtr_holdoffs", static_cast<double>(holdoffs), "count");
  reporter.metric("baseline_mttr_p50", base_p50, "slots");
  reporter.metric("baseline_mttr_p99", base_p99, "slots");
  reporter.metric("fsm_mttr_p50", fsm_p50, "slots");
  reporter.metric("fsm_mttr_p99", fsm_p99, "slots");

  // The gates: what guard + WTR must buy over the legacy behaviour.
  bool passed = all_clean;
  if (fsm_spurious != 0) {
    passed = false;
    std::printf("GATE FAIL: %llu spurious cut-outs with the guard enabled\n",
                static_cast<unsigned long long>(fsm_spurious));
  }
  if (fsm_reform >= base_reform) {
    passed = false;
    std::printf("GATE FAIL: re-formations %llu (fsm) not below %llu "
                "(baseline)\n",
                static_cast<unsigned long long>(fsm_reform),
                static_cast<unsigned long long>(base_reform));
  }
  if (fsm_p99 > base_p99) {
    passed = false;
    std::printf("GATE FAIL: p99 MTTR %.1f slots (fsm) worse than %.1f "
                "(baseline)\n", fsm_p99, base_p99);
  }
  std::printf("totals    base: spurious %llu reform %llu mttr %.1f/%.1f | "
              "fsm: spurious %llu reform %llu mttr %.1f/%.1f — %s\n",
              static_cast<unsigned long long>(base_spurious),
              static_cast<unsigned long long>(base_reform), base_p50,
              base_p99, static_cast<unsigned long long>(fsm_spurious),
              static_cast<unsigned long long>(fsm_reform), fsm_p50, fsm_p99,
              passed ? "PASS" : "FAIL");
  return passed ? 0 : 1;
}

void print_text(const SeedResult& r) {
  std::printf("seed %-4llu %s  mttd %6.1f/%6.1f  mttr %6.1f/%6.1f  "
              "losses %llu rec %llu rebuilds %llu ctrl-lost %llu "
              "retries %llu abandoned %llu reconverge %lld\n",
              static_cast<unsigned long long>(r.seed),
              r.passed ? "PASS" : "FAIL", r.mttd_mean_slots, r.mttd_max_slots,
              r.mttr_mean_slots, r.mttr_max_slots,
              static_cast<unsigned long long>(r.sat_losses),
              static_cast<unsigned long long>(r.recoveries),
              static_cast<unsigned long long>(r.rebuilds),
              static_cast<unsigned long long>(r.control_lost),
              static_cast<unsigned long long>(r.join_retries),
              static_cast<unsigned long long>(r.joins_abandoned),
              static_cast<long long>(r.reconverge_slots));
  for (const std::string& why : r.failures) {
    std::printf("         !! %s\n", why.c_str());
  }
}

void print_json(const std::vector<SeedResult>& results) {
  std::printf("{\n  \"seeds\": [");
  bool first = true;
  for (const SeedResult& r : results) {
    std::printf("%s\n    {\"seed\": %llu, \"passed\": %s, "
                "\"mttd_mean_slots\": %.2f, \"mttd_max_slots\": %.2f, "
                "\"mttr_mean_slots\": %.2f, \"mttr_max_slots\": %.2f, "
                "\"sat_losses\": %llu, \"recoveries\": %llu, "
                "\"rebuilds\": %llu, \"control_lost\": %llu, "
                "\"join_retries\": %llu, \"joins_abandoned\": %llu, "
                "\"frames_lost_link\": %llu, \"frames_lost_rebuild\": %llu, "
                "\"frames_lost_churn\": %llu, "
                "\"auditor_violations\": %llu, \"reconverge_slots\": %lld}",
                first ? "" : ",",
                static_cast<unsigned long long>(r.seed),
                r.passed ? "true" : "false", r.mttd_mean_slots,
                r.mttd_max_slots, r.mttr_mean_slots, r.mttr_max_slots,
                static_cast<unsigned long long>(r.sat_losses),
                static_cast<unsigned long long>(r.recoveries),
                static_cast<unsigned long long>(r.rebuilds),
                static_cast<unsigned long long>(r.control_lost),
                static_cast<unsigned long long>(r.join_retries),
                static_cast<unsigned long long>(r.joins_abandoned),
                static_cast<unsigned long long>(r.frames_lost_link),
                static_cast<unsigned long long>(r.frames_lost_rebuild),
                static_cast<unsigned long long>(r.frames_lost_churn),
                static_cast<unsigned long long>(r.auditor_violations),
                static_cast<long long>(r.reconverge_slots));
    first = false;
  }
  std::printf("\n  ]\n}\n");
}

}  // namespace
}  // namespace wrt

int main(int argc, char** argv) {
  wrt::util::Args args(argc, argv);
  if (args.has("help")) {
    std::puts(
        "usage: wrt_chaos [--seeds 1,2,...] [--n 12] [--parked 4]\n"
        "                 [--slots 8000] [--events 8] [--plan file]\n"
        "                 [--print-plan] [--json]\n"
        "       wrt_chaos --flap-matrix [--flap-events 4] [--guard 32]\n"
        "                 [--wtr 128] [--json-dir=DIR]");
    return 0;
  }
  wrt::Options options;
  options.seeds = args.get_int_list(
      "seeds", {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
  options.n = static_cast<std::size_t>(args.get_int("n", 12));
  options.parked = static_cast<std::size_t>(args.get_int("parked", 4));
  options.horizon_slots = args.get_int("slots", 8000);
  options.plan_events = static_cast<std::size_t>(args.get_int("events", 8));
  options.plan_path = args.get_string("plan", "");
  options.print_plan = args.has("print-plan");
  options.json = args.has("json");
  options.flap_matrix = args.has("flap-matrix");
  options.flap_events =
      static_cast<std::size_t>(args.get_int("flap-events", 4));
  options.guard_slots = args.get_int("guard", 32);
  options.wtr_slots = args.get_int("wtr", 128);
  (void)args.get_string("json-dir", "");  // parsed by bench::Reporter
  for (const std::string& flag : args.unknown_flags()) {
    std::fprintf(stderr, "wrt_chaos: unknown flag --%s\n", flag.c_str());
    return 2;
  }
  if (options.n < 5) {
    std::fprintf(stderr, "wrt_chaos: --n must be >= 5\n");
    return 2;
  }

  if (options.flap_matrix) {
    wrt::bench::Reporter reporter("recovery_fsm", argc, argv);
    return wrt::run_flap_matrix(options, reporter);
  }

  wrt::fault::FaultPlan fixed_plan;
  bool have_fixed_plan = false;
  if (!options.plan_path.empty()) {
    auto loaded = wrt::fault::FaultPlan::load(options.plan_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "wrt_chaos: %s\n",
                   loaded.error().message.c_str());
      return 2;
    }
    fixed_plan = std::move(loaded.value());
    have_fixed_plan = true;
    // Ring members and parked joiners are the whole topology.
    for (const wrt::fault::FaultEvent& event : fixed_plan.events) {
      const auto status =
          wrt::fault::check_event(event, options.n + options.parked);
      if (!status.ok()) {
        std::fprintf(stderr, "wrt_chaos: %s: @%lld %s: %s\n",
                     options.plan_path.c_str(),
                     static_cast<long long>(event.slot),
                     wrt::fault::to_string(event.kind),
                     status.error().message.c_str());
        return 2;
      }
    }
  }

  std::vector<wrt::SeedResult> results;
  bool all_passed = true;
  for (const std::int64_t seed : options.seeds) {
    wrt::SeedResult result =
        wrt::run_seed(static_cast<std::uint64_t>(seed), options,
                      have_fixed_plan ? &fixed_plan : nullptr);
    all_passed = all_passed && result.passed;
    if (!options.json) wrt::print_text(result);
    results.push_back(std::move(result));
  }
  if (options.json) {
    wrt::print_json(results);
  } else {
    std::printf("%zu/%zu seeds passed\n",
                results.size() -
                    static_cast<std::size_t>(std::count_if(
                        results.begin(), results.end(),
                        [](const wrt::SeedResult& r) { return !r.passed; })),
                results.size());
  }
  return all_passed ? 0 : 1;
}
