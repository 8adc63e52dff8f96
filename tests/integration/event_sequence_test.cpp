// Causal-ordering assertions on the engines' protocol event journals: the
// recovery and join machinery must unfold in the order the paper specifies.
#include <gtest/gtest.h>

#include "analysis/bounds.hpp"
#include "telemetry/journal.hpp"
#include "tests/wrtring/test_helpers.hpp"
#include "tpt/engine.hpp"
#include "wrtring/engine.hpp"

namespace wrt {
namespace {

using telemetry::Journal;
using telemetry::JournalKind;
using wrtring::testing::Harness;
using wrtring::testing::of_kind;

/// Large enough that no station's ring wraps in these runs.
constexpr std::size_t kCapacity = 1 << 14;

/// True iff the journal holds both kinds and the first `a` is no later
/// than the first `b`.
bool ordered(const Journal& journal, JournalKind a, JournalKind b) {
  const auto first_a = of_kind(journal, a);
  const auto first_b = of_kind(journal, b);
  if (first_a.empty() || first_b.empty()) return false;
  return first_a.front().second.tick <= first_b.front().second.tick;
}

TEST(EventSequence, RecoveryUnfoldsInPaperOrder) {
  Journal journal(kCapacity);
  Harness h(8, wrtring::Config{}, 1, 2.4, &journal);
  h.engine.run_slots(100);
  h.engine.drop_sat_once();
  h.engine.run_slots(4 * analysis::sat_time_bound(h.engine.ring_params()));
  ASSERT_EQ(journal.total_dropped(), 0u);
  // launch -> lost -> detected, SAT_REC sent (one sat-rec-start record) ->
  // cut-out -> recovered.
  EXPECT_TRUE(ordered(journal, JournalKind::kSatLaunch, JournalKind::kSatLost));
  EXPECT_TRUE(
      ordered(journal, JournalKind::kSatLost, JournalKind::kSatRecStart));
  EXPECT_TRUE(
      ordered(journal, JournalKind::kSatRecStart, JournalKind::kCutOut));
  EXPECT_TRUE(
      ordered(journal, JournalKind::kCutOut, JournalKind::kSatRecDone));
  // The detector blamed its ring predecessor.
  const auto detections = of_kind(journal, JournalKind::kSatRecStart);
  ASSERT_EQ(detections.size(), 1u);
  const auto cut_outs = of_kind(journal, JournalKind::kCutOut);
  ASSERT_EQ(cut_outs.size(), 1u);
  EXPECT_EQ(detections[0].second.arg, cut_outs[0].first);
}

TEST(EventSequence, DetectionLatencyVisibleInTrace) {
  Journal journal(kCapacity);
  Harness h(10, wrtring::Config{}, 1, 2.4, &journal);
  h.engine.run_slots(100);
  h.engine.drop_sat_once();
  const auto bound = analysis::sat_time_bound(h.engine.ring_params());
  h.engine.run_slots(4 * bound);
  ASSERT_EQ(journal.total_dropped(), 0u);
  const auto lost = of_kind(journal, JournalKind::kSatLost);
  const auto detected = of_kind(journal, JournalKind::kSatRecStart);
  ASSERT_EQ(lost.size(), 1u);
  ASSERT_EQ(detected.size(), 1u);
  const Tick latency = detected[0].second.tick - lost[0].second.tick;
  EXPECT_GT(latency, 0);
  EXPECT_LE(ticks_to_slots(latency), bound);
}

TEST(EventSequence, JoinEventsCarryIngress) {
  wrtring::Config config;
  config.rap_policy = wrtring::RapPolicy::kRotating;
  Journal journal(kCapacity);
  Harness h(6, config, 1, 2.4, &journal);
  const phy::Vec2 mid =
      (h.topology.position(2) + h.topology.position(3)) * 0.5;
  const NodeId joiner = h.topology.add_node(mid);
  h.engine.request_join(joiner, {1, 1});
  h.engine.run_slots(6 * 40 * 10);
  ASSERT_EQ(journal.total_dropped(), 0u);
  const auto joins = of_kind(journal, JournalKind::kJoin);
  ASSERT_EQ(joins.size(), 1u);
  EXPECT_EQ(joins[0].first, joiner);
  // The recorded ingress really is the joiner's current ring predecessor.
  EXPECT_EQ(h.engine.virtual_ring().predecessor(joiner), joins[0].second.arg);
  // RAPs preceded the join.
  EXPECT_TRUE(ordered(journal, JournalKind::kRapStart, JournalKind::kJoin));
}

TEST(EventSequence, RejectedJoinLeavesRejectionEvent) {
  wrtring::Config config;
  config.rap_policy = wrtring::RapPolicy::kRotating;
  Journal journal(kCapacity);
  Harness h(6, config, 1, 2.4, &journal);
  h.engine.set_max_sat_time_goal(
      analysis::sat_time_bound(h.engine.ring_params()) + 2);
  const phy::Vec2 mid =
      (h.topology.position(0) + h.topology.position(1)) * 0.5;
  const NodeId greedy = h.topology.add_node(mid);
  h.engine.request_join(greedy, {40, 40});
  h.engine.run_slots(6 * 40 * 10);
  ASSERT_EQ(journal.total_dropped(), 0u);
  EXPECT_EQ(of_kind(journal, JournalKind::kJoinReject).size(), 1u);
  EXPECT_TRUE(of_kind(journal, JournalKind::kJoin).empty());
}

TEST(EventSequence, TptClaimOrdering) {
  phy::Topology room(phy::placement::circle(8, 5.0),
                     phy::RadioParams{100.0, 0.0});
  tpt::TptConfig config;
  config.ttrt_slots = 32;
  tpt::TptEngine engine(&room, config, 1);
  Journal journal(kCapacity);
  engine.set_journal(&journal);
  ASSERT_TRUE(engine.init().ok());
  engine.run_slots(200);
  engine.drop_token_once();
  engine.run_slots(10 * config.ttrt_slots);
  ASSERT_EQ(journal.total_dropped(), 0u);
  EXPECT_TRUE(
      ordered(journal, JournalKind::kTokenLost, JournalKind::kClaimStart));
  EXPECT_TRUE(
      ordered(journal, JournalKind::kClaimStart, JournalKind::kClaimDone));
  EXPECT_TRUE(of_kind(journal, JournalKind::kTreeRebuild).empty());
}

TEST(EventSequence, TptDeathEndsInTreeRebuild) {
  phy::Topology room(phy::placement::circle(8, 5.0),
                     phy::RadioParams{100.0, 0.0});
  tpt::TptConfig config;
  config.ttrt_slots = 32;
  tpt::TptEngine engine(&room, config, 1);
  Journal journal(kCapacity);
  engine.set_journal(&journal);
  ASSERT_TRUE(engine.init().ok());
  engine.run_slots(200);
  engine.kill_station(4);
  engine.run_slots(40 * config.ttrt_slots);
  ASSERT_EQ(journal.total_dropped(), 0u);
  EXPECT_TRUE(
      ordered(journal, JournalKind::kClaimStart, JournalKind::kTreeRebuild));
  EXPECT_TRUE(of_kind(journal, JournalKind::kClaimDone).empty());
}

}  // namespace
}  // namespace wrt
