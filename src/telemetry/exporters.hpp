// Post-hoc exporters for the telemetry layer.
//
// Three consumers, three formats:
//  * Chrome trace_event JSON — open in about://tracing or Perfetto; SAT
//    residency at each station renders as a per-station (tid) track of
//    complete ("X") slices, data-plane and membership moments as instants.
//  * Flat JSON — one object per snapshot: counters as numbers, histograms
//    with explicit bucket edges; stable schema for dashboards and scripts.
//  * CSV — `metric,value` rows for spreadsheet-grade consumers.
//
// All exporters format from immutable inputs (a RegistrySnapshot of one
// engine's MetricBlock, a Journal) so exporting never perturbs a running
// engine.  The journal is the engines' only protocol event record, so the
// Chrome trace shows the recovery steps too (SAT loss, SAT_REC, cut-out,
// re-formation; TPT's token loss, claim and tree rebuild) as instants.
#pragma once

#include <iosfwd>
#include <utility>
#include <vector>

#include "telemetry/journal.hpp"
#include "telemetry/registry.hpp"
#include "util/types.hpp"

namespace wrt::telemetry {

/// Writes a metric snapshot as one flat JSON object.
void write_snapshot_json(std::ostream& out, const RegistrySnapshot& snapshot);

/// Writes a metric snapshot as `metric,value` CSV (histograms contribute
/// <name>_count / _mean / _p50 / _p99 derived rows).
void write_snapshot_csv(std::ostream& out, const RegistrySnapshot& snapshot);

/// Writes a journal as a Chrome trace_event JSON document.  Ticks map to
/// trace microseconds at 1 slot = 1 us; station N becomes thread id N with
/// a named metadata record.  SAT residency (kSatArrive -> kSatRelease)
/// becomes "X" duration slices; everything else becomes instant events.
/// Per-station drop counts are emitted as trace metadata so a wrapped ring
/// is visible in the viewer.
void write_chrome_trace(std::ostream& out, const Journal& journal);

/// A timestamped sequence of metric snapshots (periodic snapshotting):
/// the loop that steps an engine calls
/// capture(engine.now(), engine.telemetry().snapshot()) between chunks.
class SnapshotTimeline {
 public:
  void capture(Tick now, RegistrySnapshot snapshot) {
    entries_.push_back({now, std::move(snapshot)});
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] const RegistrySnapshot& at(std::size_t i) const {
    return entries_[i].snapshot;
  }
  [[nodiscard]] Tick tick_at(std::size_t i) const {
    return entries_[i].tick;
  }

  /// JSON array of {tick, snapshot} objects.
  void write_json(std::ostream& out) const;

 private:
  struct Entry {
    Tick tick = 0;
    RegistrySnapshot snapshot;
  };
  std::vector<Entry> entries_;
};

}  // namespace wrt::telemetry
