// Digest suite pinning what a Scenario does, entry by entry.
//
// Each cell runs a fixed-seed timeline through Scenario::run and hashes
// every log entry (slot, text, ring size, SAT state) and the final
// EngineStats counters.  Cells:
//   - builders: every builder at least once on a 12-station circle with
//     two parked joiners, including a degrade and a flap on the same link
//     (a flap's restores must leave the degrade in place) and a forced
//     switch refused behind a pending leave;
//   - plan_text: the same timeline as a text FaultPlan through
//     FaultPlan::parse and apply_plan (link-heal stands in for the
//     builders' plain restore);
//   - random<seed>: FaultPlan::random for seeds 1-8 with four parked
//     joiners and two flapping links, on wrt_chaos's bursty ambient
//     channel;
//   - hop_*: the cases that decide which loss process a ring hop draws
//     from.  hop_redegrade degrades 2<->3 on a clean channel, heals it and
//     degrades it again with other parameters (data loss turns on, off and
//     on, and the second degrade restarts the link's process);
//     hop_chord_cutout degrades the chord 4<->6 on a bursty channel, then
//     crashes 5 so the SAT_REC cut-out makes 4->6 a ring hop, and heals the
//     chord while it is one; hop_sat_only loses SATs alone, so spurious
//     cut-outs and rejoins keep moving which hops the SAT crosses.
//
// The builders, plan_text and random cells were recorded against the
// Scenario that kept its own action enum and translated each FaultPlan
// event into it; the hop cells against the loss field that searched a
// per-link map on every offer.  Regenerating
// after a *deliberate* change to what a scripted fault does:
//   WRT_DIGEST_CAPTURE=1 ./test_wrtring --gtest_filter='*ScenarioDigest*'
// and paste the printed lines back into kExpected.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_plan.hpp"
#include "phy/topology.hpp"
#include "util/rng.hpp"
#include "wrtring/engine.hpp"
#include "wrtring/scenario.hpp"

namespace wrt::wrtring {
namespace {

constexpr std::size_t kStations = 12;
constexpr std::int64_t kHorizon = 8000;

/// Ring members 0..11 on a 2-hop-range circle, then `parked` dead joiner
/// candidates just outside it (the wrt_chaos placement).
phy::Topology chaos_topology(std::size_t parked) {
  phy::Topology topology = phy::ring_room(kStations);
  for (std::size_t i = 0; i < parked; ++i) {
    const phy::Vec2 base =
        topology.position(static_cast<NodeId>((i * 3) % kStations));
    topology.set_alive(topology.add_node(base * 1.08), false);
  }
  return topology;
}

/// wrt_chaos's seed-randomized ambient channel.
fault::ChannelConfig chaos_channel(std::uint64_t seed) {
  util::RngStream rng(seed, 0xC0FFEEu);
  fault::ChannelConfig channel;
  channel.data = fault::GeParams::bursty(
      0.005 + 0.02 * rng.uniform(), 1.0 + std::floor(rng.uniform() * 16.0));
  channel.sat = fault::GeParams::iid(0.002 + 0.006 * rng.uniform());
  channel.control = fault::GeParams::iid(0.01 + 0.05 * rng.uniform());
  return channel;
}

void add_rt_flows(Engine& engine) {
  for (NodeId n = 0; n < kStations; ++n) {
    traffic::FlowSpec spec;
    spec.id = n;
    spec.src = n;
    spec.dst = static_cast<NodeId>((n + kStations / 2) % kStations);
    spec.cls = TrafficClass::kRealTime;
    spec.kind = traffic::ArrivalKind::kCbr;
    spec.period_slots = 40.0;
    engine.add_source(spec);
  }
}

struct Fnv {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  void add(const std::string& text) {
    for (const char c : text) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 0x100000001b3ULL;
    }
    hash ^= 0xFF;  // field separator
    hash *= 0x100000001b3ULL;
  }
  void add(std::uint64_t value) { add(std::to_string(value)); }
  [[nodiscard]] std::string hex() const {
    char out[17];
    std::snprintf(out, sizeof out, "%016llx",
                  static_cast<unsigned long long>(hash));
    return out;
  }
};

std::string stats_hash(const Engine& engine) {
  const EngineStats& s = engine.stats();
  Fnv fnv;
  for (const std::uint64_t counter :
       {s.sat_hops, s.sat_rounds, s.data_transmissions, s.transit_forwards,
        s.frames_lost_link, s.frames_lost_rebuild, s.frames_lost_churn,
        s.frames_dropped_stale, s.control_messages_lost, s.join_retries,
        s.joins_abandoned, s.sat_losses_detected, s.sat_recoveries,
        s.cut_outs, s.spurious_cutouts, s.ring_rebuilds, s.raps_started,
        s.joins_completed, s.joins_rejected, s.leaves_completed,
        s.cdma_collisions, s.header_decode_failures,
        s.sat_loss_detection_slots.count(), s.recovery_total_slots.count(),
        s.join_latency_slots.count(), s.sink.total_delivered()}) {
    fnv.add(counter);
  }
  for (const TrafficClass cls :
       {TrafficClass::kRealTime, TrafficClass::kAssured,
        TrafficClass::kBestEffort}) {
    const auto& by_class = s.sink.by_class(cls);
    fnv.add(by_class.delivered);
    fnv.add(by_class.deadline_misses);
    fnv.add(by_class.dropped);
  }
  return fnv.hex();
}

std::string run_digest(Scenario& scenario, Engine& engine,
                       phy::Topology& topology) {
  const std::vector<Scenario::LogEntry> log =
      scenario.run(engine, topology, kHorizon);
  Fnv fnv;
  for (const Scenario::LogEntry& entry : log) {
    fnv.add(static_cast<std::uint64_t>(entry.slot));
    fnv.add(entry.what);
    fnv.add(entry.ring_size);
    fnv.add(static_cast<std::uint64_t>(entry.sat_state));
  }
  return "entries=" + std::to_string(log.size()) + ";log=" + fnv.hex() +
         ";ring=" + std::to_string(engine.virtual_ring().size()) +
         ";stats=" + stats_hash(engine);
}

/// Stations 12 and 13 are the parked joiners.
void script_builders(Scenario& s) {
  s.mark_at(0, "start")
      .degrade_link_at(400, 2, 3, fault::GeParams::bursty(0.2, 8.0))
      .flap_link_at(600, 2, 3, 40, 25, 3)
      .drop_sat_at(900)
      .drop_control_at(1000, Engine::ControlMsg::kJoinReq)
      .join_at(1000, 12, {1, 1})
      .kill_at(2500, 5)
      .stall_at(3500, 8)
      .resume_at(3560, 8)
      .fail_link_at(4200, 0, 1)
      .restore_link_at(4300, 0, 1)
      .heal_link_at(4500, 2, 3)
      .partition_at(5000, {{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9, 10, 11}})
      .heal_partition_at(5400)
      .leave_at(6000, 10)
      .force_switch_at(6000, 3)
      .force_switch_at(6800, 4)
      .clear_switch_at(7000, 4)
      .join_at(7200, 13, {1, 1})
      .mark_at(7900, "end");
}

constexpr const char* kPlanText = R"(# script_builders() in the plan's verbs
@0 mark start
@400 link-degrade 2 3 avg=0.2 dwell=8 bad=1
@600 flap 2 3 period=40 duty=25 cycles=3
@900 drop-sat
@1000 drop-control join-req
@1000 join 12 l=1 k=1
@2500 crash 5
@3500 stall 8
@3560 resume 8
@4200 link-break 0 1
@4300 link-heal 0 1
@4500 link-heal 2 3
@5000 partition 0 1 2 3 4 5 | 6 7 8 9 10 11
@5400 heal-partition
@6000 leave 10
@6000 force-switch 3
@6800 force-switch 4
@7000 clear-switch 4
@7200 join 13 l=1 k=1
@7900 mark end
)";

Config chaos_config(std::uint64_t seed, bool ambient) {
  Config config;
  config.rap_policy = RapPolicy::kRotating;
  config.auto_rejoin = true;
  if (ambient) config.channel = chaos_channel(seed);
  return config;
}

std::string scripted_digest(bool from_text) {
  phy::Topology topology = chaos_topology(2);
  Engine engine(&topology, chaos_config(1, false), /*seed=*/1);
  if (!engine.init().ok()) return "init-failed";
  add_rt_flows(engine);
  Scenario scenario;
  if (from_text) {
    const auto plan = fault::FaultPlan::parse(kPlanText);
    if (!plan.ok()) return "parse-failed: " + plan.error().message;
    scenario.apply_plan(plan.value());
  } else {
    script_builders(scenario);
  }
  return run_digest(scenario, engine, topology);
}

std::string random_digest(std::uint64_t seed) {
  phy::Topology topology = chaos_topology(4);
  Engine engine(&topology, chaos_config(seed, true), seed);
  if (!engine.init().ok()) return "init-failed";
  add_rt_flows(engine);
  fault::FaultPlan::RandomOptions options;
  options.n_stations = kStations;
  for (NodeId node = kStations; node < topology.node_count(); ++node) {
    options.parked.push_back(node);
  }
  options.horizon_slots = kHorizon;
  options.flap_events = 2;
  Scenario scenario;
  scenario.apply_plan(fault::FaultPlan::random(seed, options));
  return run_digest(scenario, engine, topology);
}

std::string hop_digest(const std::string& cell) {
  phy::Topology topology = chaos_topology(0);
  Config config = chaos_config(1, false);
  Scenario scenario;
  if (cell == "hop_redegrade") {
    // No membership change between the heal and the second degrade, so
    // the data plane still holds the handle it resolved for 2->3.
    scenario.degrade_link_at(400, 2, 3, fault::GeParams::bursty(0.4, 2.0))
        .heal_link_at(550, 2, 3)
        .degrade_link_at(650, 2, 3, fault::GeParams::bursty(0.2, 4.0, 0.5));
  } else if (cell == "hop_chord_cutout") {
    config.channel = chaos_channel(3);
    scenario.degrade_link_at(500, 4, 6, fault::GeParams::bursty(0.1, 6.0))
        .kill_at(1500, 5)
        .heal_link_at(4000, 4, 6);
  } else {  // hop_sat_only
    config.channel.sat = fault::GeParams::iid(0.01);
    scenario.kill_at(2000, 7).leave_at(5000, 10);
  }
  Engine engine(&topology, config, /*seed=*/7);
  if (!engine.init().ok()) return "init-failed";
  add_rt_flows(engine);
  return run_digest(scenario, engine, topology);
}

std::string cell_digest(const std::string& cell) {
  if (cell == "builders") return scripted_digest(false);
  if (cell == "plan_text") return scripted_digest(true);
  if (cell.rfind("hop_", 0) == 0) return hop_digest(cell);
  return random_digest(std::stoull(cell.substr(std::string("random").size())));
}

struct Expected {
  const char* cell;
  const char* digest;
};

// gtest would otherwise print the two pointers' bytes into the listed test
// name, and those move with the load address from one run to the next.
void PrintTo(const Expected& expected, std::ostream* os) {
  *os << expected.cell;
}

// Recorded against the action-enum Scenario and the map-searching loss
// field (see header comment).
constexpr Expected kExpected[] = {
    {"builders",
     "entries=37;log=53c0f57f3e8ff2b9;ring=13;stats=ca3ac903238a3eb0"},
    {"plan_text",
     "entries=37;log=c58a955aff435e65;ring=13;stats=ca3ac903238a3eb0"},
    {"random1",
     "entries=58;log=ff0645ead99d4343;ring=11;stats=a58adf0302654c05"},
    {"random2",
     "entries=60;log=3f2191eaba625b4f;ring=14;stats=5a51d7797645ec89"},
    {"random3",
     "entries=51;log=7267a5e99d82f4bb;ring=9;stats=2f877a9e95698fa5"},
    {"random4",
     "entries=52;log=417ab72cb38e102f;ring=14;stats=04fd05fa6f192c5b"},
    {"random5",
     "entries=62;log=67499ef588320938;ring=11;stats=80fec431693c1568"},
    {"random6",
     "entries=38;log=07fa150730dcdc63;ring=11;stats=50def475ec80a3cc"},
    {"random7",
     "entries=41;log=ac46d9752dbf5e57;ring=11;stats=48f2ea1bbc7f6c0d"},
    {"random8",
     "entries=67;log=4a025584e57e15e0;ring=12;stats=c3bc79d0564f4205"},
    {"hop_redegrade",
     "entries=5;log=b8fa867a76758ce0;ring=12;stats=0d780a2806299698"},
    {"hop_chord_cutout",
     "entries=39;log=221c27b6a0666294;ring=10;stats=ccfbd63891e528d0"},
    {"hop_sat_only",
     "entries=38;log=8dd28954a852cfd2;ring=10;stats=1b23859e98be6f44"},
};

class ScenarioDigest : public ::testing::TestWithParam<Expected> {};

TEST_P(ScenarioDigest, MatchesActionEnumScenario) {
  const Expected& expected = GetParam();
  const std::string digest = cell_digest(expected.cell);
  if (std::getenv("WRT_DIGEST_CAPTURE") != nullptr) {
    std::printf("CAPTURE {\"%s\", \"%s\"},\n", expected.cell, digest.c_str());
    GTEST_SKIP() << "capture mode";
  }
  EXPECT_EQ(digest, expected.digest);
}

INSTANTIATE_TEST_SUITE_P(
    Cells, ScenarioDigest, ::testing::ValuesIn(kExpected),
    [](const ::testing::TestParamInfo<Expected>& cell) {
      return std::string(cell.param.cell);
    });

}  // namespace
}  // namespace wrt::wrtring
