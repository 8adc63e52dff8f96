// Shard-confinement smoke for the federation pattern (DESIGN.md
// "Concurrency model & shard-safety contract"): one engine per worker
// thread, no cross-shard handles, and no shared mutable state — each
// engine counts into its own telemetry block.
//
// The test runs K independent engines on K threads, each with its own
// fixed seed, and asserts every per-engine digest is bit-identical to the
// digest of the same seed run serially: parallelism must not perturb
// protocol behaviour in any way.  Under `scripts/check.sh --tsan` the same
// test doubles as the data-race probe for the whole engine stack, its
// telemetry included.
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "phy/topology.hpp"
#include "wrtring/engine.hpp"

namespace wrt::wrtring {
namespace {

constexpr std::size_t kShards = 4;
constexpr std::size_t kStations = 16;

void saturate(Engine& engine, std::size_t n) {
  for (NodeId node = 0; node < n; ++node) {
    traffic::FlowSpec spec;
    spec.id = node;
    spec.src = node;
    spec.dst = static_cast<NodeId>((node + n / 2) % n);
    spec.cls = node % 3 == 0 ? TrafficClass::kBestEffort
                             : TrafficClass::kRealTime;
    engine.add_saturated_source(spec, 4);
  }
}

std::string field(const char* key, std::uint64_t value) {
  return std::string(key) + "=" + std::to_string(value) + ";";
}

std::string engine_digest(Engine& engine) {
  const EngineStats& stats = engine.stats();
  std::string digest;
  digest += field("ring", engine.virtual_ring().size());
  digest += field("rounds", stats.sat_rounds);
  digest += field("hops", stats.sat_hops);
  digest += field("tx", stats.data_transmissions);
  digest += field("transit", stats.transit_forwards);
  digest += field("delivered", stats.sink.total_delivered());
  digest += field("rt_del",
                  stats.sink.by_class(TrafficClass::kRealTime).delivered);
  digest += field("be_del",
                  stats.sink.by_class(TrafficClass::kBestEffort).delivered);
  digest += field("recoveries", stats.sat_recoveries);
  digest += field("losses_detected", stats.sat_losses_detected);
  digest += field("rebuilds", stats.ring_rebuilds);
  digest += field("invariants_ok", engine.check_invariants().ok() ? 1 : 0);
  return digest;
}

/// One complete shard run: saturated ring, a mid-run station kill (so the
/// recovery machinery and its telemetry run too), digest at the end.
/// Everything — topology, engine, RNG — is thread-local by construction.
std::string run_shard(std::uint64_t seed) {
  phy::Topology topology = phy::ring_room(kStations);
  Config config;
  config.sat_timeout_slots = static_cast<std::int64_t>(4 * kStations + 64);
  Engine engine(&topology, config, seed);
  saturate(engine, kStations);
  if (!engine.init().ok()) return "init-failed";
  engine.run_slots(512);
  engine.kill_station(engine.virtual_ring().station_at(5));
  engine.run_slots(2 * config.sat_timeout_slots + 512);
  return engine_digest(engine);
}

TEST(ShardSmoke, ParallelShardsMatchSerialDigests) {
  std::vector<std::string> serial;
  serial.reserve(kShards);
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    serial.push_back(run_shard(100 + shard));
  }

  std::vector<std::string> parallel(kShards);
  std::vector<std::thread> threads;
  threads.reserve(kShards);
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    threads.emplace_back(
        [shard, &parallel] { parallel[shard] = run_shard(100 + shard); });
  }
  for (std::thread& thread : threads) thread.join();

  for (std::size_t shard = 0; shard < kShards; ++shard) {
    EXPECT_EQ(parallel[shard], serial[shard]) << "shard=" << shard;
    EXPECT_NE(serial[shard], "init-failed") << "shard=" << shard;
  }
}

}  // namespace
}  // namespace wrt::wrtring
