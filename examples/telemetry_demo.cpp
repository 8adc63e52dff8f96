// Telemetry demo: a clean 32-station WRT-Ring run with the full observability
// stack attached — the engine's hot-path counters and QoS histograms, a
// per-station event journal, and periodic snapshots of the engine's metrics
// — exported in every format the subsystem speaks.
//
//   $ build/examples/telemetry_demo [out-dir]
//
// Writes into out-dir (default "."):
//   telemetry_demo.jrnl     binary journal   -> feed to build/tools/wrt_report
//   telemetry_demo.trace.json  Chrome trace  -> open in about://tracing
//   telemetry_demo.snapshot.json  final metric snapshot (flat JSON)
//   telemetry_demo.timeline.json  periodic snapshots over the run
//   telemetry_demo.csv      final snapshot as metric,value CSV
//
// Exit status 0 iff the observed per-station SAT rotation maximum stays
// within the Theorem 1 bound — the same check tools/wrt_report performs.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "analysis/bounds.hpp"
#include "phy/topology.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/metrics.hpp"
#include "wrtring/engine.hpp"

int main(int argc, char** argv) {
  using namespace wrt;

  if (!telemetry::kTelemetryEnabled) {
    std::cout << "telemetry_demo: built with WRT_TELEMETRY=OFF; counters and "
                 "histograms will read zero (the journal still records).\n";
  }
  // Default into build/ so a bare run from the repo root never litters the
  // working tree; created if absent so the demo also works from elsewhere.
  const std::string out_dir = argc > 1 ? argv[1] : "build";
  std::filesystem::create_directories(out_dir);

  // 32 stations around a 40 m circle — the paper's larger indoor scenario.
  phy::Topology topology(phy::placement::circle(32, 40.0),
                         phy::RadioParams{18.0, 0.0});
  wrtring::Config config;
  config.default_quota = {2, 1};

  wrtring::Engine engine(&topology, config, /*seed=*/7);
  if (const auto status = engine.init(); !status.ok()) {
    std::cerr << "ring construction failed: " << status.error().message << '\n';
    return 2;
  }

  // Attach the journal (large enough that a 20k-slot run never wraps) and
  // sample queue depths every 64 slots.
  telemetry::Journal journal(/*capacity_per_station=*/8192);
  engine.set_journal(&journal, /*queue_sample_every_slots=*/64);

  // Traffic: one real-time voice flow and one best-effort flow per quadrant.
  for (NodeId src = 0; src < 32; src += 8) {
    traffic::FlowSpec voice;
    voice.id = src + 1;
    voice.src = src;
    voice.dst = (src + 16) % 32;
    voice.cls = TrafficClass::kRealTime;
    voice.kind = traffic::ArrivalKind::kCbr;
    voice.period_slots = 40.0;
    engine.add_source(voice);

    traffic::FlowSpec data;
    data.id = src + 2;
    data.src = src + 4;
    data.dst = (src + 20) % 32;
    data.cls = TrafficClass::kBestEffort;
    data.kind = traffic::ArrivalKind::kPoisson;
    data.rate_per_slot = 0.02;
    engine.add_source(data);
  }

  // Run 20,000 slots, capturing a metric snapshot every 2,000.
  telemetry::SnapshotTimeline timeline;
  for (int chunk = 0; chunk < 10; ++chunk) {
    engine.run_slots(2000);
    timeline.capture(engine.now(), engine.telemetry().snapshot());
  }
  journal.set_meta(engine.journal_meta());

  // Export everything.
  const auto write = [&](const std::string& name, auto&& writer) {
    const std::string path = out_dir + "/" + name;
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot open " << path << '\n';
      return false;
    }
    writer(out);
    std::cout << "wrote " << path << '\n';
    return true;
  };

  if (const auto status = journal.save(out_dir + "/telemetry_demo.jrnl");
      !status.ok()) {
    std::cerr << "journal save failed: " << status.error().message << '\n';
    return 2;
  }
  std::cout << "wrote " << out_dir << "/telemetry_demo.jrnl ("
            << journal.total_recorded() << " events, "
            << journal.total_dropped() << " dropped)\n";

  const auto snapshot = engine.telemetry().snapshot();
  bool ok = true;
  ok = write("telemetry_demo.trace.json",
             [&](std::ostream& o) { telemetry::write_chrome_trace(o, journal); }) && ok;
  ok = write("telemetry_demo.snapshot.json",
             [&](std::ostream& o) { telemetry::write_snapshot_json(o, snapshot); }) && ok;
  ok = write("telemetry_demo.timeline.json",
             [&](std::ostream& o) { timeline.write_json(o); }) && ok;
  ok = write("telemetry_demo.csv",
             [&](std::ostream& o) { telemetry::write_snapshot_csv(o, snapshot); }) && ok;
  if (!ok) return 2;

  // The acceptance check: every observed rotation within the Theorem 1 bound.
  const analysis::RingParams params = engine.ring_params();
  const auto bound = analysis::sat_time_bound(params);
  double worst = 0.0;
  for (const NodeId station : journal.stations()) {
    Tick last = kNeverTick;
    for (const auto& event : journal.events(station)) {
      if (event.kind != telemetry::JournalKind::kSatArrive) continue;
      if (last != kNeverTick) {
        worst = std::max(worst, ticks_to_slots_real(event.tick - last));
      }
      last = event.tick;
    }
  }
  std::cout << "worst observed SAT rotation " << worst << " slots, Theorem 1 "
            << "bound " << bound << " slots -> "
            << (worst < static_cast<double>(bound) ? "within bound"
                                                   : "VIOLATED")
            << '\n';
  return worst < static_cast<double>(bound) ? 0 : 1;
}
