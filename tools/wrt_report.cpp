// wrt_report: turn a binary telemetry journal into a per-station QoS report.
//
// Reads a journal written by telemetry::Journal::save() (see
// examples/telemetry_demo.cpp for a producer) and checks the run against the
// paper's delay-bounded service claims:
//
//   * SAT rotation: per-station inter-arrival of kSatArrive events, reported
//     as observed max / mean against the Theorem 1 bound
//     S + T_rap + 2 * sum_j (l_j + k_j) evaluated from the RingMeta embedded
//     in the journal file.
//   * Access delay: per-Diffserv-class queue->transmit delay from kTransmit
//     events, with the real-time class checked against Theorem 3 (x = 0).
//   * Membership and recovery: joins, leaves, cut-outs, SAT losses, SAT_REC
//     start/done events and finished re-formations, plus per-station ring
//     overwrite (drop) counts so a truncated history is never mistaken for
//     a quiet station.
//
//   $ build/tools/wrt_report run.jrnl          # human-readable report
//   $ build/tools/wrt_report --json run.jrnl   # machine-readable JSON
//
// Exit status: 0 when every per-station observed SAT rotation maximum is
// within the Theorem 1 bound (or no bound is present), 1 on violation,
// 2 on usage / I/O errors.
#include <algorithm>
#include <array>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "telemetry/journal.hpp"
#include "util/types.hpp"

namespace {

using wrt::telemetry::Journal;
using wrt::telemetry::JournalEvent;
using wrt::telemetry::JournalKind;

struct ClassStats {
  std::uint64_t transmits = 0;
  double delay_sum_slots = 0.0;
  double delay_max_slots = 0.0;

  void add(double delay_slots) {
    ++transmits;
    delay_sum_slots += delay_slots;
    delay_max_slots = std::max(delay_max_slots, delay_slots);
  }
  [[nodiscard]] double mean() const {
    return transmits == 0 ? 0.0
                          : delay_sum_slots / static_cast<double>(transmits);
  }
};

struct StationReport {
  wrt::NodeId station = wrt::kInvalidNode;
  std::uint64_t sat_arrivals = 0;
  double rotation_mean_slots = 0.0;
  double rotation_max_slots = 0.0;
  std::array<ClassStats, 3> by_class{};  // indexed by TrafficClass
  std::uint64_t deliveries = 0;
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t cut_outs = 0;
  std::uint64_t sat_lost = 0;
  std::uint64_t sat_rec_started = 0;
  std::uint64_t sat_rec_done = 0;
  std::uint64_t rebuilds_done = 0;  ///< re-formations that ended here
  std::uint64_t stalls = 0;
  std::uint64_t resumes = 0;
  std::uint64_t control_losses = 0;
  std::uint64_t rebuild_drop_frames = 0;  ///< in-flight frames torn down here
  std::uint64_t dropped = 0;
  bool rotation_within_bound = true;
};

StationReport analyze_station(const Journal& journal, wrt::NodeId station,
                              std::int64_t sat_bound_slots) {
  StationReport report;
  report.station = station;
  report.dropped = journal.dropped(station);

  wrt::Tick last_arrival = wrt::kNeverTick;
  double rotation_sum = 0.0;
  std::uint64_t rotations = 0;
  for (const JournalEvent& event : journal.events(station)) {
    switch (event.kind) {
      case JournalKind::kSatArrive: {
        ++report.sat_arrivals;
        if (last_arrival != wrt::kNeverTick) {
          const double rotation =
              wrt::ticks_to_slots_real(event.tick - last_arrival);
          rotation_sum += rotation;
          ++rotations;
          report.rotation_max_slots =
              std::max(report.rotation_max_slots, rotation);
        }
        last_arrival = event.tick;
        break;
      }
      case JournalKind::kTransmit: {
        const std::uint32_t cls = event.arg;
        if (cls < report.by_class.size()) {
          report.by_class[cls].add(
              wrt::ticks_to_slots_real(static_cast<wrt::Tick>(event.value)));
        }
        break;
      }
      case JournalKind::kDeliver: ++report.deliveries; break;
      case JournalKind::kJoin: ++report.joins; break;
      case JournalKind::kLeave: ++report.leaves; break;
      case JournalKind::kCutOut: ++report.cut_outs; break;
      case JournalKind::kSatLost: ++report.sat_lost; break;
      case JournalKind::kSatRecStart: ++report.sat_rec_started; break;
      case JournalKind::kSatRecDone: ++report.sat_rec_done; break;
      case JournalKind::kRebuildDone: ++report.rebuilds_done; break;
      case JournalKind::kStall: ++report.stalls; break;
      case JournalKind::kResume: ++report.resumes; break;
      case JournalKind::kControlLost: ++report.control_losses; break;
      case JournalKind::kRebuildDrop:
        report.rebuild_drop_frames += event.value;
        break;
      case JournalKind::kSatRelease:
      case JournalKind::kQueueDepth:
      case JournalKind::kSnapshot:
      case JournalKind::kSatLaunch:
      case JournalKind::kRebuildStart:
      case JournalKind::kRapStart:
      case JournalKind::kJoinReject:
      case JournalKind::kTokenLost:
      case JournalKind::kClaimStart:
      case JournalKind::kClaimDone:
      case JournalKind::kTreeRebuild:
        break;
    }
  }
  if (rotations > 0) {
    report.rotation_mean_slots = rotation_sum / static_cast<double>(rotations);
  }
  // The Theorem 1 inequality is strict (SAT_TIME < bound); a ring that
  // wrapped may have lost the arrival that anchored the worst rotation, so
  // the check is only meaningful on the surviving window — drops are
  // reported alongside so the reader can judge.
  if (sat_bound_slots > 0 &&
      report.rotation_max_slots >= static_cast<double>(sat_bound_slots)) {
    report.rotation_within_bound = false;
  }
  return report;
}

const char* class_name(std::size_t cls) {
  switch (cls) {
    case 0: return "real_time";
    case 1: return "assured";
    default: return "best_effort";
  }
}

void print_text(std::ostream& out, const Journal& journal,
                const std::vector<StationReport>& reports,
                std::int64_t sat_bound_slots, std::int64_t access_bound_slots) {
  const auto& meta = journal.meta();
  out << "WRT-Ring QoS report\n"
      << "  stations with events : " << reports.size() << '\n'
      << "  events recorded      : " << journal.total_recorded()
      << " (dropped " << journal.total_dropped() << ")\n"
      << "  ring latency S       : " << meta.ring_latency_slots << " slots\n"
      << "  T_rap                : " << meta.t_rap_slots << " slots\n";
  if (sat_bound_slots > 0) {
    out << "  Theorem 1 SAT bound  : " << sat_bound_slots << " slots\n"
        << "  Theorem 3 access bnd : " << access_bound_slots
        << " slots (x = 0)\n";
  } else {
    out << "  Theorem 1 SAT bound  : n/a (journal has no ring metadata)\n";
  }
  out << '\n';

  out << std::fixed << std::setprecision(2);
  for (const StationReport& r : reports) {
    out << "station " << r.station << '\n'
        << "  SAT arrivals " << r.sat_arrivals << ", rotation mean "
        << r.rotation_mean_slots << " / max " << r.rotation_max_slots
        << " slots";
    if (sat_bound_slots > 0) {
      out << (r.rotation_within_bound ? "  [within bound]"
                                      : "  [BOUND VIOLATED]");
    }
    out << '\n';
    for (std::size_t cls = 0; cls < r.by_class.size(); ++cls) {
      const ClassStats& c = r.by_class[cls];
      if (c.transmits == 0) continue;
      out << "  " << std::setw(11) << class_name(cls) << ": " << c.transmits
          << " tx, access delay mean " << c.mean() << " / max "
          << c.delay_max_slots << " slots\n";
    }
    if (r.deliveries != 0) out << "  deliveries " << r.deliveries << '\n';
    if (r.joins + r.leaves + r.cut_outs != 0) {
      out << "  membership: joins " << r.joins << ", leaves " << r.leaves
          << ", cut-outs " << r.cut_outs << '\n';
    }
    if (r.sat_lost + r.sat_rec_started + r.sat_rec_done + r.rebuilds_done !=
        0) {
      out << "  recovery: SAT lost " << r.sat_lost << ", SAT_REC started "
          << r.sat_rec_started << ", completed " << r.sat_rec_done
          << ", re-formations done " << r.rebuilds_done << '\n';
    }
    if (r.stalls + r.resumes != 0) {
      out << "  faults: stalled " << r.stalls << ", resumed " << r.resumes
          << '\n';
    }
    if (r.control_losses != 0) {
      out << "  lost join-handshake messages " << r.control_losses << '\n';
    }
    if (r.rebuild_drop_frames != 0) {
      out << "  frames torn down by re-formations " << r.rebuild_drop_frames
          << '\n';
    }
    if (r.dropped != 0) {
      out << "  journal ring overwrote " << r.dropped
          << " events (oldest history truncated)\n";
    }
  }
}

void print_json(std::ostream& out, const Journal& journal,
                const std::vector<StationReport>& reports,
                std::int64_t sat_bound_slots, std::int64_t access_bound_slots) {
  const auto& meta = journal.meta();
  out << "{\n"
      << "  \"events_recorded\": " << journal.total_recorded() << ",\n"
      << "  \"events_dropped\": " << journal.total_dropped() << ",\n"
      << "  \"ring_latency_slots\": " << meta.ring_latency_slots << ",\n"
      << "  \"t_rap_slots\": " << meta.t_rap_slots << ",\n"
      << "  \"theorem1_sat_bound_slots\": " << sat_bound_slots << ",\n"
      << "  \"theorem3_access_bound_slots\": " << access_bound_slots << ",\n"
      << "  \"stations\": [";
  bool first = true;
  for (const StationReport& r : reports) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    {\"station\": " << r.station
        << ", \"sat_arrivals\": " << r.sat_arrivals
        << ", \"rotation_mean_slots\": " << r.rotation_mean_slots
        << ", \"rotation_max_slots\": " << r.rotation_max_slots
        << ", \"rotation_within_bound\": "
        << (r.rotation_within_bound ? "true" : "false")
        << ", \"deliveries\": " << r.deliveries << ", \"joins\": " << r.joins
        << ", \"leaves\": " << r.leaves << ", \"cut_outs\": " << r.cut_outs
        << ", \"sat_lost\": " << r.sat_lost
        << ", \"sat_rec_started\": " << r.sat_rec_started
        << ", \"sat_rec_done\": " << r.sat_rec_done
        << ", \"rebuilds_done\": " << r.rebuilds_done
        << ", \"stalls\": " << r.stalls << ", \"resumes\": " << r.resumes
        << ", \"control_losses\": " << r.control_losses
        << ", \"rebuild_drop_frames\": " << r.rebuild_drop_frames
        << ", \"journal_dropped\": " << r.dropped << ", \"classes\": {";
    bool first_class = true;
    for (std::size_t cls = 0; cls < r.by_class.size(); ++cls) {
      const ClassStats& c = r.by_class[cls];
      if (c.transmits == 0) continue;
      if (!first_class) out << ", ";
      first_class = false;
      out << '"' << class_name(cls) << "\": {\"transmits\": " << c.transmits
          << ", \"delay_mean_slots\": " << c.mean()
          << ", \"delay_max_slots\": " << c.delay_max_slots << '}';
    }
    out << "}}";
  }
  out << "\n  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: wrt_report [--json] <journal-file>\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "wrt_report: unknown option " << arg << '\n';
      return 2;
    } else {
      path = arg;
    }
  }
  if (path.empty()) {
    std::cerr << "usage: wrt_report [--json] <journal-file>\n";
    return 2;
  }

  auto loaded = wrt::telemetry::Journal::load(path);
  if (!loaded.ok()) {
    std::cerr << "wrt_report: " << loaded.error().message << '\n';
    return 2;
  }
  const Journal& journal = loaded.value();

  // Evaluate the paper's bounds from the embedded metadata.
  const auto& meta = journal.meta();
  std::int64_t sat_bound_slots = 0;
  std::int64_t access_bound_slots = 0;
  if (!meta.quotas.empty()) {
    wrt::analysis::RingParams params;
    params.ring_latency_slots = meta.ring_latency_slots;
    params.t_rap_slots = meta.t_rap_slots;
    params.quotas.reserve(meta.quotas.size());
    for (const auto& [node, quota] : meta.quotas) params.quotas.push_back(quota);
    sat_bound_slots = wrt::analysis::sat_time_bound(params);
    access_bound_slots = wrt::analysis::access_time_bound(params, 0, 0);
  }

  std::vector<StationReport> reports;
  bool all_within_bound = true;
  for (const wrt::NodeId station : journal.stations()) {
    reports.push_back(analyze_station(journal, station, sat_bound_slots));
    all_within_bound = all_within_bound && reports.back().rotation_within_bound;
  }

  if (json) {
    print_json(std::cout, journal, reports, sat_bound_slots,
               access_bound_slots);
  } else {
    print_text(std::cout, journal, reports, sat_bound_slots,
               access_bound_slots);
  }
  return all_within_bound ? 0 : 1;
}
