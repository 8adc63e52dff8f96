// Human-readable engine reports.
//
// Examples and operational tooling repeatedly print the same digest of an
// engine's state: ring composition, the analytical guarantees currently in
// force, per-class delivery quality, and the recovery history.  These
// builders render that digest as util::Table objects (printable as text or
// CSV) so every binary shows the same numbers the same way.
#pragma once

#include "tpt/engine.hpp"
#include "util/table.hpp"
#include "wrtring/engine.hpp"

namespace wrt::wrtring {

/// Ring composition + the bounds currently in force (Theorems 1/3).
[[nodiscard]] util::Table guarantee_report(const Engine& engine);

/// Per-class delivery quality (delivered, delays, deadline misses, drops).
[[nodiscard]] util::Table traffic_report(const Engine& engine);

/// Topology-change and recovery history (losses, cut-outs, rebuilds,
/// joins, leaves, with latency statistics).
[[nodiscard]] util::Table resilience_report(const Engine& engine);

/// Per-class delivery quality for the TPT baseline (same columns as
/// traffic_report, so the two print side by side).
[[nodiscard]] util::Table traffic_report(const tpt::TptEngine& engine);

}  // namespace wrt::wrtring
