// Clean-run guarantee: an auditor installed on a churn-heavy scenario —
// joins, graceful leaves, unannounced deaths, transient SAT drops — must
// report zero violations with the Theorem-1/2 oracles active.  The oracle
// disturbance gating is what is really under test here: membership events
// and faults keep invalidating arrival history, and the auditor has to
// keep telling legitimate post-disturbance spans apart from bound
// breaches.
//
// The engine invokes the installed hook on every membership event in all
// builds, and every K slots in audit builds (WRT_AUDIT_LEVEL != 0); the
// test additionally audits at every epoch boundary so the structural
// checks and the oracles run on a fixed cadence in release builds too.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "check/invariants.hpp"
#include "ring/virtual_ring.hpp"
#include "tests/wrtring/test_helpers.hpp"
#include "util/audit.hpp"
#include "util/rng.hpp"
#include "wrtring/engine.hpp"

namespace wrt::check {
namespace {

class AuditChurnTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AuditChurnTest, ChurnHeavyScenarioAuditsClean) {
  const std::uint64_t seed = GetParam();
  constexpr std::size_t kInitial = 12;

  phy::Topology topology = phy::ring_room(kInitial);
  std::vector<NodeId> parked;
  for (std::size_t i = 0; i < 6; ++i) {
    const phy::Vec2 base =
        topology.position(static_cast<NodeId>((i * 2) % kInitial));
    const NodeId id = topology.add_node(base * 1.08);
    topology.set_alive(id, false);
    parked.push_back(id);
  }

  wrtring::Config config;
  config.rap_policy = wrtring::RapPolicy::kRotating;
  config.auto_rejoin = true;
  wrtring::Engine engine(&topology, config, seed);

  InvariantAuditor auditor(engine);
  auditor.install(engine, /*every_k_slots=*/64);

  ASSERT_TRUE(engine.init().ok());
  for (NodeId n = 0; n < kInitial; ++n) {
    engine.add_source(wrtring::testing::rt_flow(n, n, kInitial, 40.0));
  }

  util::RngStream rng(seed, 0xC4u);
  std::size_t next_parked = 0;
  for (int epoch = 0; epoch < 30; ++epoch) {
    const std::uint64_t dice = rng.uniform_int(std::uint64_t{5});
    const std::size_t ring_size = engine.virtual_ring().size();
    switch (dice) {
      case 0:
        if (next_parked < parked.size()) {
          const NodeId joiner = parked[next_parked++];
          topology.set_alive(joiner, true);
          engine.request_join(joiner, {1, 1});
        }
        break;
      case 1:
        if (ring_size > 5) {
          (void)engine.request_leave(engine.virtual_ring().station_at(
              static_cast<std::size_t>(rng.uniform_int(
                  static_cast<std::uint64_t>(ring_size)))));
        }
        break;
      case 2:
        if (ring_size > 5) {
          engine.kill_station(engine.virtual_ring().station_at(
              static_cast<std::size_t>(rng.uniform_int(
                  static_cast<std::uint64_t>(ring_size)))));
        }
        break;
      case 3:
        engine.drop_sat_once();
        break;
      default:
        break;
    }
    engine.run_slots(2000);
    auditor.run("epoch");
  }

  EXPECT_TRUE(auditor.clean())
      << "seed " << seed << ": "
      << (auditor.violations().empty()
              ? std::string("(records capped)")
              : auditor.violations().front().check + ": " +
                    auditor.violations().front().detail);
  EXPECT_EQ(auditor.total_violations(), 0u);

  // init + 30 epoch audits at minimum; membership events add more, and
  // audit builds add the periodic per-64-slot cadence on top.
  EXPECT_GE(auditor.audits_run(), 31u);
  if (util::kAuditEnabled) {
    EXPECT_GE(auditor.audits_run(), 31u + (30u * 2000u) / 64u);
  }

  // The oracles must have actually run — a gating bug that silently
  // disabled them would otherwise make this test vacuous.
  for (const CheckStats& stats : auditor.check_stats()) {
    EXPECT_EQ(stats.runs, auditor.audits_run()) << stats.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AuditChurnTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace wrt::check
