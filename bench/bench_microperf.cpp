// Microbenchmarks (google-benchmark): the simulator kernels whose speed
// determines how large an experiment sweep the harness can afford.
#include <benchmark/benchmark.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/bench_gbench.hpp"
#include "cdma/channel.hpp"
#include "cdma/code_assignment.hpp"
#include "ring/virtual_ring.hpp"
#include "tpt/engine.hpp"
#include "util/rng.hpp"
#include "wrtring/engine.hpp"

namespace wrt {
namespace {

void BM_EngineStepIdle(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  phy::Topology topology = bench::ring_room(n);
  wrtring::Engine engine(&topology, wrtring::Config{}, 1);
  if (!engine.init().ok()) {
    state.SkipWithError("init failed");
    return;
  }
  for (auto _ : state) engine.step();
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EngineStepIdle)->Arg(8)->Arg(32)->Arg(128);

void BM_EngineStepSaturated(benchmark::State& state) {
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
    spec.cls = TrafficClass::kRealTime;
    engine.add_saturated_source(spec, 8);
  }
  for (auto _ : state) engine.step();
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EngineStepSaturated)->Arg(8)->Arg(32)->Arg(128);

void BM_EngineStepCdmaFidelity(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  phy::Topology topology = bench::ring_room(n);
  wrtring::Config config;
  config.cdma_fidelity = true;
  wrtring::Engine engine(&topology, config, 1);
  if (!engine.init().ok()) {
    state.SkipWithError("init failed");
    return;
  }
  for (NodeId node = 0; node < n; ++node) {
    traffic::FlowSpec spec;
    spec.id = node;
    spec.src = node;
    spec.dst = static_cast<NodeId>((node + 1) % n);
    spec.cls = TrafficClass::kBestEffort;
    engine.add_saturated_source(spec, 8);
  }
  for (auto _ : state) engine.step();
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EngineStepCdmaFidelity)->Arg(8)->Arg(32);

void BM_TptStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  phy::Topology topology = bench::dense_room(n);
  tpt::TptEngine engine(&topology, tpt::TptConfig{}, 1);
  if (!engine.init().ok()) {
    state.SkipWithError("init failed");
    return;
  }
  for (auto _ : state) engine.step();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TptStep)->Arg(8)->Arg(32)->Arg(128);

void BM_BuildRing(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const phy::Topology topology = bench::ring_room(n);
  for (auto _ : state) {
    auto result = ring::build_ring(topology);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_BuildRing)->Arg(8)->Arg(32)->Arg(128);

// BM_BuildRing never gets past the angular heuristic: the angular ring is
// valid on every ring_room circle.  These two time the backtracking search.

/// ring-partition's split (bench/e2e): a 64-station ring_room with an arc of
/// 9 stations walled off.  The search over the 55-station side fails after
/// its whole default budget of 200,000 steps.
void BM_RingSearchFailed(benchmark::State& state) {
  phy::Topology topology = bench::ring_room(64);
  std::vector<NodeId> arc;
  for (NodeId node = 0; node < 64 / 7; ++node) arc.push_back(node);
  topology.set_partition({arc});
  const std::vector<NodeId> members = ring::largest_component(topology);
  if (ring::build_ring_over(topology, members).ok()) {
    state.SkipWithError("the search found a ring");
    return;
  }
  for (auto _ : state) {
    auto result = ring::build_ring_over(topology, members);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_RingSearchFailed);

/// Two 24-station cliques 16 m apart, joined by a band of 24 bridge
/// stations above them.  The angular order steps from one clique straight
/// to the other below the band, so only the search finds the ring.
void BM_RingSearchFound(benchmark::State& state) {
  util::RngStream rng(2, 0xC1A5);
  std::vector<phy::Vec2> positions;
  for (const double cx : {0.0, 16.0}) {
    for (int i = 0; i < 24; ++i) {
      const double r = 3.0 * std::sqrt(rng.uniform());
      const double a = rng.uniform(0.0, 2.0 * std::numbers::pi);
      positions.push_back({cx + r * std::cos(a), r * std::sin(a)});
    }
  }
  for (int i = 0; i < 24; ++i) {
    positions.push_back({rng.uniform(2.0, 14.0), rng.uniform(3.0, 8.0)});
  }
  const phy::Topology topology(std::move(positions),
                               phy::RadioParams{10.0, 0.0});
  const std::vector<NodeId> members = ring::largest_component(topology);
  // A zero budget leaves only the angular heuristic.
  if (ring::build_ring_over(topology, members, 0).ok() ||
      !ring::build_ring_over(topology, members).ok()) {
    state.SkipWithError("the layout no longer needs a successful search");
    return;
  }
  for (auto _ : state) {
    auto result = ring::build_ring_over(topology, members);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_RingSearchFound);

void BM_CodeAssignmentGreedy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const phy::Topology topology = bench::ring_room(n);
  for (auto _ : state) {
    auto codes = cdma::assign_greedy_two_hop(topology);
    benchmark::DoNotOptimize(codes);
  }
}
BENCHMARK(BM_CodeAssignmentGreedy)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

// Engine::init's distance-2 check of the greedy map.
void BM_CodeVerify(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const phy::Topology topology = bench::ring_room(n);
  const auto codes = cdma::assign_greedy_two_hop(topology);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cdma::verify_two_hop_distinct(topology, codes));
  }
}
BENCHMARK(BM_CodeVerify)->Arg(64)->Arg(1024);

// The x-sweep every whole-graph pass starts from.
void BM_NeighborTable(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const phy::Topology topology = bench::ring_room(n);
  for (auto _ : state) {
    auto table = topology.neighbor_table();
    benchmark::DoNotOptimize(table);
  }
}
BENCHMARK(BM_NeighborTable)->Arg(64)->Arg(1024);

void BM_ChannelSlotResolution(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  phy::Topology topology = bench::ring_room(n);
  const auto codes = cdma::assign_greedy_two_hop(topology);
  cdma::Channel<int> channel(&topology);
  for (NodeId node = 0; node < n; ++node) {
    channel.set_listen_codes(node, {codes[node], kBroadcastCode});
  }
  Tick now = 0;
  for (auto _ : state) {
    channel.begin_slot(now);
    for (NodeId node = 0; node < n; ++node) {
      channel.transmit(node, codes[(node + 1) % n], 0);
    }
    benchmark::DoNotOptimize(channel.end_slot());
    now += kTicksPerSlot;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ChannelSlotResolution)->Arg(8)->Arg(32)->Arg(128);

void BM_RngStream(benchmark::State& state) {
  util::RngStream rng(7);
  double sink = 0.0;
  for (auto _ : state) {
    sink += rng.exponential(10.0);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_RngStream);

}  // namespace
}  // namespace wrt

int main(int argc, char** argv) {
  wrt::bench::Reporter reporter("microperf", argc, argv);
  reporter.seed(1);
  reporter.seed(7);
  return wrt::bench::run_gbench(reporter, argc, argv);
}
