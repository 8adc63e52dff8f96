// Engine hot-path microbenchmark (google-benchmark).
//
// Measures steady-state slot throughput of the position-indexed engine on
// the 32-station reference ring (the restructure's acceptance criterion is
// >= 2x over the map-indexed baseline), the same load over a lossy channel
// (the data plane's per-hop visit), the repo benchmark's sparse CBR shape
// from 64 to 4096 stations (the traffic poll's cost against ring size) and
// over a lossy channel (the per-hop visit at partial occupancy), 64 rings
// of 64 stations stepped in turn as a federation shard steps them (the
// per-position columns cold on every epoch), plus the membership-churn path
// that exercises the dense-vector repack.
//
// `--digest` runs a fixed-seed 32-station scenario instead and prints the
// protocol counters; the output must be bit-identical across builds of the
// same protocol logic, so scripts/check.sh uses it as a cheap regression
// oracle for "restructure changed performance, not behaviour".
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "analysis/bounds.hpp"
#include "bench/bench_common.hpp"
#include "bench/bench_gbench.hpp"
#include "fault/gilbert_elliott.hpp"
#include "wrtring/engine.hpp"

namespace wrt {
namespace {

/// Initialises `engine` and backlogs every station; returns false when the
/// ring cannot be built.
bool saturate_engine(wrtring::Engine& engine, std::size_t n) {
  if (!engine.init().ok()) return false;
  for (NodeId node = 0; node < n; ++node) {
    traffic::FlowSpec spec;
    spec.id = node;
    spec.src = node;
    spec.dst = static_cast<NodeId>((node + n / 2) % n);
    spec.cls = TrafficClass::kRealTime;
    engine.add_saturated_source(spec, 8);
  }
  return true;
}

/// Steady state: every station backlogged, no membership changes.  All
/// station/source lookups hit the epoch-validated position cache.
void BM_HotPathSteadyState(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  phy::Topology topology = bench::ring_room(n);
  wrtring::Engine engine(&topology, wrtring::Config{}, 1);
  if (!saturate_engine(engine, n)) {
    state.SkipWithError("init failed");
    return;
  }
  engine.run_slots(256);  // past the warm-up transient
  for (auto _ : state) engine.step();
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HotPathSteadyState)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096);

/// Steady state over a bursty lossy channel: each slot makes one loss draw
/// per frame on a link, the per-hop work the data plane's rotation calendar
/// cannot schedule ahead.  N = 64 is the repo benchmark's ring-faults ring.
void BM_HotPathLossy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  phy::Topology topology = bench::ring_room(n);
  wrtring::Config config;
  config.channel.data = fault::GeParams::bursty(0.001, 8.0);
  wrtring::Engine engine(&topology, config, 1);
  if (!saturate_engine(engine, n)) {
    state.SkipWithError("init failed");
    return;
  }
  engine.run_slots(256);
  for (auto _ : state) engine.step();
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HotPathLossy)->Arg(32)->Arg(64)->Arg(1024);

/// Mixed CBR + Poisson load (the common experiment shape) rather than full
/// saturation: stresses poll_traffic()'s bound-source cache.
void BM_HotPathMixedLoad(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  phy::Topology topology = bench::ring_room(n);
  wrtring::Engine engine(&topology, wrtring::Config{}, 1);
  if (!engine.init().ok()) {
    state.SkipWithError("init failed");
    return;
  }
  for (NodeId node = 0; node < n; ++node) {
    traffic::FlowSpec spec;
    spec.id = node;
    spec.src = node;
    spec.dst = static_cast<NodeId>((node + n / 2) % n);
    spec.cls = node % 2 == 0 ? TrafficClass::kRealTime
                             : TrafficClass::kBestEffort;
    spec.kind = node % 2 == 0 ? traffic::ArrivalKind::kCbr
                              : traffic::ArrivalKind::kPoisson;
    spec.period_slots = 8.0;
    spec.rate_per_slot = 0.125;
    engine.add_source(spec);
  }
  engine.run_slots(256);
  for (auto _ : state) engine.step();
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HotPathMixedLoad)->Arg(32)->Arg(128);

/// The repo benchmark's ring traffic shape: every station sources one
/// real-time CBR flow to the opposite station at period 4N, start slots
/// spread evenly over the period, and odd stations keep a best-effort
/// queue of 8 backlogged to the station `be_hop` positions on.  Returns the
/// period.
std::int64_t attach_sparse_cbr(wrtring::Engine& engine, std::size_t n,
                               std::size_t be_hop) {
  const auto period = static_cast<std::int64_t>(4 * n);
  for (NodeId node = 0; node < n; ++node) {
    traffic::FlowSpec rt;
    rt.id = node;
    rt.src = node;
    rt.dst = static_cast<NodeId>((node + n / 2) % n);
    rt.cls = TrafficClass::kRealTime;
    rt.kind = traffic::ArrivalKind::kCbr;
    rt.period_slots = static_cast<double>(period);
    rt.start_slot = 4 * static_cast<std::int64_t>(node);
    engine.add_source(rt);
    if (node % 2 == 1) {
      traffic::FlowSpec be;
      be.id = static_cast<FlowId>(n + node);
      be.src = node;
      be.dst = static_cast<NodeId>((node + be_hop) % n);
      be.cls = TrafficClass::kBestEffort;
      engine.add_saturated_source(be, 8);
    }
  }
  return period;
}

/// The repo benchmark's ring-clean traffic shape (attach_sparse_cbr, one-hop
/// best-effort).  About one source is due every fourth slot whatever N is,
/// so the per-slot time shows what the traffic poll costs as the ring
/// grows.
void BM_HotPathSparseCbr(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  phy::Topology topology = bench::ring_room(n);
  wrtring::Engine engine(&topology, wrtring::Config{}, 1);
  if (!engine.init().ok()) {
    state.SkipWithError("init failed");
    return;
  }
  engine.run_slots(attach_sparse_cbr(engine, n, 1));  // every source started
  for (auto _ : state) engine.step();
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HotPathSparseCbr)->Arg(64)->Arg(1024)->Arg(4096);

/// ring-faults' occupancy: the sparse CBR shape with best-effort flows
/// about N/2 hops long, over a bursty lossy channel, so about a third of
/// the links carry a frame in a slot (BM_HotPathLossy saturates every
/// station and so every link).  `in_flight` is the mean number of frames
/// on the links after a step: the per-hop visit's draws per slot.
void BM_HotPathLossySparse(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  phy::Topology topology = bench::ring_room(n);
  wrtring::Config config;
  config.channel.data = fault::GeParams::bursty(0.001, 8.0);
  wrtring::Engine engine(&topology, config, 1);
  if (!engine.init().ok()) {
    state.SkipWithError("init failed");
    return;
  }
  engine.run_slots(attach_sparse_cbr(engine, n, n / 2));
  std::uint64_t in_flight = 0;
  for (auto _ : state) {
    engine.step();
    in_flight += engine.frames_in_flight();
  }
  state.counters["in_flight"] = benchmark::Counter(
      static_cast<double>(in_flight), benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HotPathLossySparse)->Arg(64)->Arg(1024);

/// A federation shard's access pattern: `rings` rings of 64 stations, each
/// with the federation's two saturated best-effort sources, stepped 64
/// slots (one epoch) in turn.  Every other cell steps one ring whose state
/// stays in cache; here each ring's columns go cold while the others run.
/// Items are station-slots.
void BM_HotPathRingsInTurn(benchmark::State& state) {
  const auto rings = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kStations = 64;
  constexpr std::int64_t kEpochSlots = 64;
  std::vector<std::unique_ptr<phy::Topology>> topologies;
  std::vector<std::unique_ptr<wrtring::Engine>> engines;
  for (std::size_t r = 0; r < rings; ++r) {
    topologies.push_back(
        std::make_unique<phy::Topology>(bench::ring_room(kStations)));
    engines.push_back(std::make_unique<wrtring::Engine>(
        topologies.back().get(), wrtring::Config{}, r + 1));
    wrtring::Engine& engine = *engines.back();
    if (!engine.init().ok()) {
      state.SkipWithError("init failed");
      return;
    }
    // As FederationEngine::build_rings: stations 1 and 2 backlogged to the
    // stations half a ring away, the gateway (station 0) exempt.
    for (NodeId i = 0; i < 2; ++i) {
      traffic::FlowSpec spec;
      spec.id = i;
      spec.src = 1 + i;
      spec.dst = static_cast<NodeId>(1 + (i + (kStations - 1) / 2));
      spec.cls = TrafficClass::kBestEffort;
      engine.add_saturated_source(spec, 4);
    }
    engine.run_slots(256);
  }
  for (auto _ : state) {
    for (const auto& engine : engines) engine->run_slots(kEpochSlots);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rings * kStations) *
                          kEpochSlots);
}
BENCHMARK(BM_HotPathRingsInTurn)->Arg(64);

/// Membership churn: a graceful leave plus the SAT_REC cut-out machinery
/// every iteration — the slow path the dense repack must not regress.
void BM_HotPathLeaveRejoinChurn(benchmark::State& state) {
  const std::size_t n = 32;
  for (auto _ : state) {
    state.PauseTiming();
    phy::Topology topology = bench::ring_room(n);
    wrtring::Engine engine(&topology, wrtring::Config{}, 1);
    if (!saturate_engine(engine, n)) {
      state.SkipWithError("init failed");
      return;
    }
    engine.run_slots(64);
    state.ResumeTiming();
    const NodeId leaver = engine.virtual_ring().station_at(5);
    if (engine.request_leave(leaver).ok()) {
      engine.run_slots(256);
    }
    benchmark::DoNotOptimize(engine.stats().leaves_completed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HotPathLeaveRejoinChurn);

/// Fixed-seed digest: deterministic protocol counters for a 32-station run
/// with saturation, churn, and a recovery.  Any diff here means the change
/// under test altered behaviour, not just speed.
int run_digest() {
  const std::size_t n = 32;
  phy::Topology topology = bench::ring_room(n);
  wrtring::Engine engine(&topology, wrtring::Config{}, 1);
  if (!saturate_engine(engine, n)) return 1;
  engine.run_slots(2000);
  const NodeId leaver = engine.virtual_ring().station_at(5);
  if (!engine.request_leave(leaver).ok()) return 1;
  engine.run_slots(1000);
  engine.kill_station(engine.virtual_ring().station_at(11));
  engine.run_slots(4 * analysis::sat_time_bound(engine.ring_params()));
  engine.run_slots(2000);
  if (!engine.check_invariants().ok()) {
    std::puts("digest: invariant violation");
    return 1;
  }
  const auto& stats = engine.stats();
  std::printf("ring_size=%zu\n", engine.virtual_ring().size());
  std::printf("sat_rounds=%llu\n",
              static_cast<unsigned long long>(stats.sat_rounds));
  std::printf("sat_hops=%llu\n",
              static_cast<unsigned long long>(stats.sat_hops));
  std::printf("data_transmissions=%llu\n",
              static_cast<unsigned long long>(stats.data_transmissions));
  std::printf("transit_forwards=%llu\n",
              static_cast<unsigned long long>(stats.transit_forwards));
  std::printf("delivered=%llu\n",
              static_cast<unsigned long long>(stats.sink.total_delivered()));
  // The digest line predates the link/teardown/churn loss splits; printing
  // the sum keeps it comparable across those accounting changes (same total
  // frames).
  std::printf("frames_lost_link=%llu\n",
              static_cast<unsigned long long>(stats.frames_lost_link +
                                              stats.frames_lost_rebuild +
                                              stats.frames_lost_churn));
  std::printf("leaves_completed=%llu\n",
              static_cast<unsigned long long>(stats.leaves_completed));
  std::printf("sat_recoveries=%llu\n",
              static_cast<unsigned long long>(stats.sat_recoveries));
  std::printf("access_delay_mean_milli=%lld\n",
              static_cast<long long>(stats.access_delay_slots.mean() * 1000));
  std::printf("rotation_mean_milli=%lld\n",
              static_cast<long long>(stats.sat_rotation_slots.mean() * 1000));
  return 0;
}

}  // namespace
}  // namespace wrt

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--digest") == 0) return wrt::run_digest();
  }
  wrt::bench::Reporter reporter("engine_hot_path", argc, argv);
  reporter.seed(1);
  return wrt::bench::run_gbench(reporter, argc, argv);
}
