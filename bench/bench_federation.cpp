// Federation scaling bench (DESIGN.md §12): sharded multi-ring fabric with
// epoch-synchronized gateway exchange.
//
// Reports aggregate throughput (station-slots/sec), end-to-end RT crossing
// delay quantiles, and the shard-scaling speedup at 1M+ stations.  Two
// throughput figures are emitted side by side:
//
//   wall          — station_slots / wall seconds on THIS host.  On a box
//                   with fewer cores than shards the workers time-share,
//                   so wall barely moves with K.
//   parallel      — station_slots / critical-path seconds, where the
//                   critical path is Σ over epochs of the max per-shard
//                   thread-CPU busy time (CLOCK_THREAD_CPUTIME_ID, immune
//                   to preemption).  This is the wall time a host with
//                   ≥ K free cores would observe; the speedup_8v1_parallel
//                   metric is the shard-scaling figure and is exact on any
//                   host because busy time is per-thread, not per-machine.
//
// `--determinism` runs only the worker-count invariance check (same
// (seed, fabric) -> same digest for W ∈ {1, 2, 8}, on two small fabrics
// and on the shape of bench/e2e's federation workload) and exits 0/1;
// scripts/check.sh --federation-smoke and CI use it as the cheap race
// oracle.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "wrtring/federation.hpp"

namespace wrt {
namespace {

constexpr std::uint64_t kSeed = 20260807;

wrtring::FederationConfig make_config(std::uint32_t rings,
                                      std::uint32_t stations,
                                      std::uint32_t shards,
                                      std::uint32_t workers) {
  wrtring::FederationConfig config;
  config.shards = shards;
  config.worker_threads = workers;
  config.epoch_slots = 64;
  config.rings = rings;
  config.stations_per_ring = stations;
  config.saturated_per_ring = 2;
  config.crossing_flows_per_ring = 1;
  config.crossing_rate_per_slot = 0.02;
  config.backbone_service_rate = 8.0;
  config.backbone_premium_capacity = 2.0;
  return config;
}

struct RunResult {
  bool ok = false;
  double wall_seconds = 0.0;
  wrtring::FederationStats stats;
  std::vector<Tick> rt_delays;
  std::uint64_t digest = 0;
};

RunResult run_federation(const wrtring::FederationConfig& config,
                         std::int64_t epochs) {
  RunResult result;
  wrtring::FederationEngine federation(config, kSeed);
  if (!federation.init().ok()) {
    std::fprintf(stderr, "federation init failed (rings=%u)\n", config.rings);
    return result;
  }
  const auto start = std::chrono::steady_clock::now();
  federation.run_epochs(epochs);
  const auto stop = std::chrono::steady_clock::now();
  result.ok = true;
  result.wall_seconds =
      std::chrono::duration<double>(stop - start).count();
  result.stats = federation.stats();
  result.rt_delays = federation.rt_crossing_delay_ticks();
  result.digest = federation.digest();
  return result;
}

/// Exact quantile (nearest-rank on the sorted sample), in slots.
double delay_quantile_slots(std::vector<Tick> delays, double q) {
  if (delays.empty()) return 0.0;
  std::sort(delays.begin(), delays.end());
  const auto index = static_cast<std::size_t>(
      q * static_cast<double>(delays.size() - 1));
  return static_cast<double>(ticks_to_slots(delays[index]));
}

double station_slots_per_sec(const wrtring::FederationStats& stats,
                             double seconds) {
  return seconds > 0.0
             ? static_cast<double>(stats.station_slots) / seconds
             : 0.0;
}

/// Same (seed, fabric) must digest identically for any worker count.
bool determinism_check(const char* label, std::uint32_t rings,
                       std::uint32_t stations, std::uint32_t shards,
                       std::int64_t epoch_slots, std::int64_t epochs) {
  std::uint64_t reference = 0;
  bool first = true;
  for (const std::uint32_t workers : {1U, 2U, 8U}) {
    wrtring::FederationConfig config =
        make_config(rings, stations, shards, workers);
    config.epoch_slots = epoch_slots;
    const RunResult result = run_federation(config, epochs);
    if (!result.ok) return false;
    if (first) {
      reference = result.digest;
      first = false;
    } else if (result.digest != reference) {
      std::printf("determinism FAIL: %s W=%u digest %016llx != %016llx\n",
                  label, workers,
                  static_cast<unsigned long long>(result.digest),
                  static_cast<unsigned long long>(reference));
      return false;
    }
  }
  std::printf("determinism ok: %s, W in {1,2,8} -> digest %016llx\n", label,
              static_cast<unsigned long long>(reference));
  return true;
}

/// Two small fabrics (16 rings of 8 stations, E = 16, 6 epochs), then the
/// shape of bench/e2e's federation workload (64 rings of 64 stations,
/// K = 8, E = 64) for 32 epochs, about 8.4 M station-slots per W.
bool determinism_checks() {
  return determinism_check("K=2", 16, 8, 2, 16, 6) &&
         determinism_check("K=8", 16, 8, 8, 16, 6) &&
         determinism_check("64x64 K=8 E=64", 64, 64, 8, 64, 32);
}

}  // namespace
}  // namespace wrt

int main(int argc, char** argv) {
  using namespace wrt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--determinism") == 0) {
      return determinism_checks() ? 0 : 1;
    }
  }

  bench::Reporter reporter("federation", argc, argv);
  reporter.seed(kSeed);
  const bool csv = reporter.csv();

  const bool ok = determinism_checks();
  reporter.metric("determinism_ok", ok ? 1.0 : 0.0, "bool");
  if (!ok) return 1;

  // Scaling sweep at K=8: fabric size vs aggregate throughput.  Smoke mode
  // shrinks the grid so CI exercises the full path in seconds.
  struct SweepPoint {
    std::uint32_t rings;
    std::uint32_t stations;
    std::int64_t epochs;
  };
  const std::vector<SweepPoint> sweep =
      reporter.smoke()
          // >= 4 epochs: a crossing needs two epoch-boundary hand-offs
          // before it can reach its destination ring at all.
          ? std::vector<SweepPoint>{{16, 8, 4}, {64, 8, 4}}
          : std::vector<SweepPoint>{{1024, 64, 4},
                                    {4096, 64, 4},
                                    {16384, 64, 4}};

  util::Table scaling(
      "Federation scaling at K=8 (W=8, E=64): aggregate station-slots/sec",
      {"rings", "stations", "wall s", "Mss/s wall", "Mss/s parallel",
       "crossings", "RT p50 slots", "RT p99 slots"});
  RunResult headline;
  for (const SweepPoint& point : sweep) {
    const RunResult result = run_federation(
        make_config(point.rings, point.stations, /*shards=*/8, /*workers=*/8),
        point.epochs);
    if (!result.ok) return 1;
    scaling.add_row(
        {static_cast<std::int64_t>(point.rings),
         static_cast<std::int64_t>(point.rings) * point.stations,
         result.wall_seconds,
         station_slots_per_sec(result.stats, result.wall_seconds) / 1e6,
         station_slots_per_sec(result.stats,
                               result.stats.critical_path_seconds) /
             1e6,
         static_cast<std::int64_t>(result.stats.crossings.crossings_delivered),
         delay_quantile_slots(result.rt_delays, 0.5),
         delay_quantile_slots(result.rt_delays, 0.99)});
    headline = result;  // last (largest) point is the headline
  }
  bench::emit(scaling, csv);

  // Headline metrics from the largest sweep point (full run: 16384 rings x
  // 64 stations = 1,048,576 stations).
  const SweepPoint largest = sweep.back();
  reporter.metric("total_stations",
                  static_cast<double>(largest.rings) * largest.stations,
                  "stations");
  reporter.metric("rings", largest.rings, "rings");
  reporter.metric("shards", 8.0, "shards");
  reporter.metric("aggregate_station_slots_per_sec_wall",
                  station_slots_per_sec(headline.stats, headline.wall_seconds),
                  "station-slots/s");
  reporter.metric(
      "aggregate_station_slots_per_sec_parallel",
      station_slots_per_sec(headline.stats,
                            headline.stats.critical_path_seconds),
      "station-slots/s");
  reporter.metric("rt_crossing_delay_p50",
                  delay_quantile_slots(headline.rt_delays, 0.5), "slots");
  reporter.metric("rt_crossing_delay_p99",
                  delay_quantile_slots(headline.rt_delays, 0.99), "slots");
  reporter.metric("crossings_delivered",
                  static_cast<double>(
                      headline.stats.crossings.crossings_delivered),
                  "packets");
  const double posted =
      static_cast<double>(headline.stats.crossings.crossings_posted);
  reporter.metric("crossing_drop_fraction",
                  posted > 0.0 ? static_cast<double>(
                                     headline.stats.crossings.crossing_drops) /
                                     posted
                               : 0.0,
                  "fraction");
  reporter.metric("rt_admitted", headline.stats.rt_admitted, "flows");
  reporter.metric("rt_rejected", headline.stats.rt_rejected, "flows");

  // Shard-scaling speedup on the headline fabric: K=8 vs K=1, same seed,
  // same rings, same epochs.  wall is whatever this host shows; parallel is
  // the critical-path ratio (exact on any host; equals wall speedup on a
  // >= 8-core host).
  const RunResult one_shard = run_federation(
      make_config(largest.rings, largest.stations, /*shards=*/1,
                  /*workers=*/1),
      largest.epochs);
  if (!one_shard.ok) return 1;
  const double speedup_wall =
      headline.wall_seconds > 0.0
          ? one_shard.wall_seconds / headline.wall_seconds
          : 0.0;
  const double speedup_parallel =
      headline.stats.critical_path_seconds > 0.0
          ? one_shard.stats.critical_path_seconds /
                headline.stats.critical_path_seconds
          : 0.0;
  util::Table speedup("Shard scaling: K=1 vs K=8 on the headline fabric",
                      {"K", "wall s", "busy s", "critical path s",
                       "Mss/s parallel"});
  speedup.add_row({1, one_shard.wall_seconds, one_shard.stats.busy_seconds,
                   one_shard.stats.critical_path_seconds,
                   station_slots_per_sec(
                       one_shard.stats,
                       one_shard.stats.critical_path_seconds) /
                       1e6});
  speedup.add_row({8, headline.wall_seconds, headline.stats.busy_seconds,
                   headline.stats.critical_path_seconds,
                   station_slots_per_sec(
                       headline.stats,
                       headline.stats.critical_path_seconds) /
                       1e6});
  bench::emit(speedup, csv);
  reporter.metric("speedup_8v1_wall", speedup_wall, "x");
  reporter.metric("speedup_8v1_parallel", speedup_parallel, "x");
  return 0;
}
