// Attaching a journal never changes protocol behaviour.  The journal is the
// only protocol event record on both MACs, so each scenario runs twice from
// one seed — once with no journal, once with one attached before init() —
// and the two runs must end in the same state: every stats counter, the
// sink totals, the ring or tree order and the SAT or token state.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "fault/gilbert_elliott.hpp"
#include "phy/topology.hpp"
#include "telemetry/journal.hpp"
#include "tests/wrtring/test_helpers.hpp"
#include "tpt/engine.hpp"
#include "traffic/traffic.hpp"
#include "wrtring/engine.hpp"
#include "wrtring/scenario.hpp"

namespace wrt {
namespace {

using telemetry::JournalKind;
using wrtring::testing::of_kind;

constexpr std::size_t kStations = 12;

void print_sink(std::ostream& out, const traffic::Sink& sink) {
  for (const TrafficClass cls :
       {TrafficClass::kRealTime, TrafficClass::kAssured,
        TrafficClass::kBestEffort}) {
    const auto& by_class = sink.by_class(cls);
    out << " class" << static_cast<int>(cls) << '=' << by_class.delivered
        << '/' << by_class.deadline_misses << '/' << by_class.dropped;
  }
  out << " delivered=" << sink.total_delivered() << '\n';
}

/// Everything a WRT-Ring run ends with, one named field at a time, so a
/// mismatch prints as a readable diff.
std::string wrt_state(const wrtring::Engine& engine) {
  const wrtring::EngineStats& s = engine.stats();
  std::ostringstream out;
  out.precision(17);
  out << "now=" << engine.now() << " sat_hops=" << s.sat_hops
      << " sat_rounds=" << s.sat_rounds << " tx=" << s.data_transmissions
      << " transit=" << s.transit_forwards << " lost_link="
      << s.frames_lost_link << " lost_rebuild=" << s.frames_lost_rebuild
      << " lost_churn=" << s.frames_lost_churn << " stale="
      << s.frames_dropped_stale << " control_lost=" << s.control_messages_lost
      << " join_retries=" << s.join_retries << " abandoned="
      << s.joins_abandoned << " detected=" << s.sat_losses_detected
      << " recoveries=" << s.sat_recoveries << " cut_outs=" << s.cut_outs
      << " spurious=" << s.spurious_cutouts << " rebuilds=" << s.ring_rebuilds
      << " raps=" << s.raps_started << " joins=" << s.joins_completed
      << " rejected=" << s.joins_rejected << " leaves=" << s.leaves_completed
      << " collisions=" << s.cdma_collisions << '\n';
  out << "rotation=" << s.sat_rotation_slots.count() << '/'
      << s.sat_rotation_slots.sum() << " access="
      << s.access_delay_slots.count() << '/' << s.access_delay_slots.sum()
      << " detect=" << s.sat_loss_detection_slots.count() << '/'
      << s.sat_loss_detection_slots.sum() << " recovery="
      << s.recovery_total_slots.count() << '/' << s.recovery_total_slots.sum()
      << " join_latency=" << s.join_latency_slots.count() << '/'
      << s.join_latency_slots.sum() << '\n';
  print_sink(out, s.sink);
  out << "ring:";
  for (const NodeId node : engine.virtual_ring().order()) out << ' ' << node;
  out << " sat_state=" << static_cast<int>(engine.sat_state()) << '\n';
  return out.str();
}

/// A 12-station ring on a bursty channel with a rotating RAP, auto_rejoin,
/// a guard window and WTR, under a storm of every fault kind the journal
/// records; two parked stations join during it.
std::string run_wrt_storm(telemetry::Journal* journal) {
  phy::Topology topology = phy::ring_room(kStations);
  const NodeId first_joiner = topology.add_node(topology.position(2) * 1.08);
  const NodeId second_joiner = topology.add_node(topology.position(8) * 1.08);
  topology.set_alive(first_joiner, false);
  topology.set_alive(second_joiner, false);

  wrtring::Config config;
  config.rap_policy = wrtring::RapPolicy::kRotating;
  config.auto_rejoin = true;
  config.guard_slots = 32;
  config.wtr_slots = 128;
  config.channel.data = fault::GeParams::bursty(0.02, 6.0);
  config.channel.sat = fault::GeParams::iid(0.004);
  config.channel.control = fault::GeParams::iid(0.03);
  wrtring::Engine engine(&topology, config, 2024);
  // Queue sampling on: the journal's busiest record path.
  engine.set_journal(journal, /*queue_sample_every_slots=*/16);
  EXPECT_TRUE(engine.init().ok());
  for (NodeId n = 0; n < kStations; ++n) {
    traffic::FlowSpec spec;
    spec.id = n;
    spec.src = n;
    spec.dst = static_cast<NodeId>((n + kStations / 2) % kStations);
    spec.cls = n % 2 == 0 ? TrafficClass::kRealTime
                          : TrafficClass::kBestEffort;
    spec.kind = traffic::ArrivalKind::kPoisson;
    spec.rate_per_slot = 0.05;
    spec.deadline_slots = 400;
    engine.add_source(spec);
  }

  wrtring::Scenario storm;
  storm.drop_sat_at(500)
      .kill_at(1500, 4)
      .stall_at(2500, 9)
      .resume_at(3000, 9)
      .join_at(3500, first_joiner, {1, 1})
      .leave_at(4500, 11)
      .fail_link_at(5500, 0, 1)
      .heal_link_at(5700, 0, 1)
      .join_at(6200, second_joiner, {1, 1})
      .drop_sat_at(7000);
  storm.run(engine, topology, 9000);
  return wrt_state(engine);
}

/// TPT on an 8-station room: a dropped token (the claim path) and a killed
/// station (the tree-rebuild path).
std::string run_tpt_storm(telemetry::Journal* journal) {
  phy::Topology room(phy::placement::circle(8, 5.0),
                     phy::RadioParams{100.0, 0.0});
  tpt::TptConfig config;
  config.ttrt_slots = 32;
  tpt::TptEngine engine(&room, config, 11);
  engine.set_journal(journal);
  EXPECT_TRUE(engine.init().ok());
  for (NodeId n = 0; n < 8; ++n) {
    traffic::FlowSpec spec;
    spec.id = n;
    spec.src = n;
    spec.dst = static_cast<NodeId>((n + 4) % 8);
    spec.cls = TrafficClass::kRealTime;
    spec.kind = traffic::ArrivalKind::kPoisson;
    spec.rate_per_slot = 0.02;
    engine.add_source(spec);
  }
  engine.run_slots(300);
  engine.drop_token_once();
  engine.run_slots(600);
  engine.kill_station(5);
  engine.run_slots(2000);

  const tpt::TptStats& s = engine.stats();
  std::ostringstream out;
  out.precision(17);
  out << "now=" << engine.now() << " hops=" << s.token_hops << " rounds="
      << s.token_rounds << " tx=" << s.data_transmissions << " detected="
      << s.losses_detected << " claims=" << s.claims_succeeded
      << " rebuilds=" << s.tree_rebuilds << " joins=" << s.joins_completed
      << " lost=" << s.frames_lost << " rotation="
      << s.token_rotation_slots.count() << '/' << s.token_rotation_slots.sum()
      << " recovery=" << s.recovery_total_slots.count() << '/'
      << s.recovery_total_slots.sum() << '\n';
  print_sink(out, s.sink);
  out << "tree root=" << engine.tree().root() << " members:";
  for (const NodeId node : engine.tree().members()) out << ' ' << node;
  out << " token_state=" << static_cast<int>(engine.token_state()) << '\n';
  return out.str();
}

TEST(JournalNeutrality, WrtRingStormEndsTheSameWithAJournal) {
  const std::string without = run_wrt_storm(nullptr);
  telemetry::Journal journal(1 << 12);
  const std::string with = run_wrt_storm(&journal);
  EXPECT_EQ(without, with);
  // The attached journal saw the storm: the comparison is not vacuous.
  for (const JournalKind kind :
       {JournalKind::kSatLaunch, JournalKind::kSatLost,
        JournalKind::kSatRecStart, JournalKind::kCutOut, JournalKind::kStall,
        JournalKind::kResume, JournalKind::kJoin, JournalKind::kLeave,
        JournalKind::kRapStart, JournalKind::kQueueDepth}) {
    EXPECT_FALSE(of_kind(journal, kind).empty()) << telemetry::to_string(kind);
  }
}

TEST(JournalNeutrality, TptTokenLossAndDeathEndTheSameWithAJournal) {
  const std::string without = run_tpt_storm(nullptr);
  telemetry::Journal journal(1 << 10);
  const std::string with = run_tpt_storm(&journal);
  EXPECT_EQ(without, with);
  for (const JournalKind kind :
       {JournalKind::kTokenLost, JournalKind::kClaimStart,
        JournalKind::kClaimDone, JournalKind::kTreeRebuild}) {
    EXPECT_FALSE(of_kind(journal, kind).empty()) << telemetry::to_string(kind);
  }
}

}  // namespace
}  // namespace wrt
