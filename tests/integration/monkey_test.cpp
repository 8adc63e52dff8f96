// Monkey test: hammer the engine's public API with random (but valid)
// operation sequences and assert it never crashes, never wedges, and keeps
// its accounting identities.  Complements churn_test, which scripts
// realistic epochs; the monkey interleaves operations at arbitrary slots,
// including during RAPs and recoveries.
#include <gtest/gtest.h>

#include "ring/virtual_ring.hpp"
#include "tests/wrtring/test_helpers.hpp"
#include "wrtring/engine.hpp"

namespace wrt::wrtring {
namespace {

class MonkeyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MonkeyTest, RandomOperationSoup) {
  const std::uint64_t seed = GetParam();
  constexpr std::size_t kN = 10;
  phy::Topology topology = testing::circle_topology(kN, 2.4);
  std::vector<NodeId> pool;
  for (int i = 0; i < 4; ++i) {
    const NodeId id = topology.add_node(
        topology.position(static_cast<NodeId>(i * 2)) * 1.06);
    pool.push_back(id);
  }

  Config config;
  config.rap_policy = RapPolicy::kRotating;
  config.auto_rejoin = true;
  config.channel.data = fault::GeParams::iid(0.01);
  Engine engine(&topology, config, seed);
  ASSERT_TRUE(engine.init().ok());
  for (NodeId n = 0; n < kN; ++n) {
    engine.add_source(testing::rt_flow(n, n, kN, 30.0));
  }

  util::RngStream rng(seed, 0x3011);
  std::size_t next_pool = 0;
  for (int op = 0; op < 400; ++op) {
    switch (rng.uniform_int(std::uint64_t{8})) {
      case 0:
        if (next_pool < pool.size()) {
          engine.request_join(pool[next_pool++], {1, 1});
        }
        break;
      case 1: {
        const auto size = engine.virtual_ring().size();
        if (size > 4) {
          (void)engine.request_leave(engine.virtual_ring().station_at(
              static_cast<std::size_t>(rng.uniform_int(
                  static_cast<std::uint64_t>(size)))));
        }
        break;
      }
      case 2: {
        const auto size = engine.virtual_ring().size();
        if (size > 5) {
          engine.kill_station(engine.virtual_ring().station_at(
              static_cast<std::size_t>(rng.uniform_int(
                  static_cast<std::uint64_t>(size)))));
        }
        break;
      }
      case 3:
        engine.drop_sat_once();
        break;
      case 4: {
        // Random (valid) quota poke.
        const auto size = engine.virtual_ring().size();
        const NodeId node = engine.virtual_ring().station_at(
            static_cast<std::size_t>(rng.uniform_int(
                static_cast<std::uint64_t>(size))));
        engine.set_station_quota(
            node, {static_cast<std::uint32_t>(rng.uniform_int(
                       std::int64_t{1}, 4)),
                   static_cast<std::uint32_t>(rng.uniform_int(
                       std::int64_t{0}, 2))});
        break;
      }
      case 5: {
        traffic::Packet p;
        const auto size = engine.virtual_ring().size();
        p.flow = 999;
        p.cls = TrafficClass::kRealTime;
        p.src = engine.virtual_ring().station_at(
            static_cast<std::size_t>(rng.uniform_int(
                static_cast<std::uint64_t>(size))));
        p.dst = engine.virtual_ring().station_at(
            static_cast<std::size_t>(rng.uniform_int(
                static_cast<std::uint64_t>(size))));
        p.created = engine.now();
        (void)engine.inject_packet(p);
        break;
      }
      default:
        break;  // just run
    }
    engine.run_slots(static_cast<std::int64_t>(rng.uniform_int(
                         std::int64_t{1}, 120)));
    if (op % 25 == 0) {
      const auto audit = engine.check_invariants();
      ASSERT_TRUE(audit.ok()) << "op " << op << " seed " << seed << ": "
                              << audit.error().message;
    }
  }

  // Let everything settle, then check liveness and accounting.
  engine.run_slots(5000);
  const bool circulating = engine.sat_state() == SatState::kInTransit ||
                           engine.sat_state() == SatState::kHeld;
  if (!circulating) {
    const auto attempt = ring::build_ring_over(
        topology, ring::largest_component(topology));
    EXPECT_FALSE(attempt.ok()) << "ring possible but engine stuck, seed "
                               << seed;
  }
  const auto& stats = engine.stats();
  EXPECT_GE(stats.sat_hops, stats.sat_rounds);
  EXPECT_LE(stats.sink.total_delivered(), stats.data_transmissions);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonkeyTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

}  // namespace
}  // namespace wrt::wrtring
