// Section 2.4.1 fairness: "To ensure the fairness, after acting as ingress
// station, a node has to wait S_round(i) >= N SAT rounds in order to enter
// the RAP period again" — and the RAP_mutex admits at most one RAP per SAT
// round.  Verified from the protocol event journal.
#include <gtest/gtest.h>

#include <map>

#include "telemetry/journal.hpp"
#include "tests/wrtring/test_helpers.hpp"
#include "wrtring/engine.hpp"

namespace wrt::wrtring {
namespace {

using telemetry::Journal;
using telemetry::JournalKind;
using testing::Harness;
using testing::of_kind;

/// Large enough that no station's ring wraps in these runs.
constexpr std::size_t kCapacity = 1 << 14;

Config rap_config() {
  Config config;
  config.rap_policy = RapPolicy::kRotating;
  config.t_ear_slots = 3;
  config.t_update_slots = 1;
  return config;
}

TEST(RapFairness, EveryStationGetsIngressTurns) {
  Journal journal(kCapacity);
  Harness h(6, rap_config(), 1, 2.4, &journal);
  h.engine.run_slots(6000);
  ASSERT_EQ(journal.total_dropped(), 0u);
  std::map<NodeId, int> raps;
  for (const auto& rap : of_kind(journal, JournalKind::kRapStart)) {
    ++raps[rap.first];
  }
  EXPECT_EQ(raps.size(), 6u) << "every station must act as ingress";
  int min_raps = 1 << 30, max_raps = 0;
  for (const auto& [node, count] : raps) {
    min_raps = std::min(min_raps, count);
    max_raps = std::max(max_raps, count);
  }
  EXPECT_GE(min_raps, 1);
  EXPECT_LE(max_raps - min_raps, 2) << "ingress duty must rotate evenly";
}

TEST(RapFairness, SRoundSpacingRespected) {
  constexpr std::size_t kN = 8;
  Journal journal(kCapacity);
  Harness h(kN, rap_config(), 1, 2.4, &journal);
  h.engine.run_slots(10000);
  ASSERT_EQ(journal.total_dropped(), 0u);
  // Between two RAPs of the same station, every other station RAPs once:
  // consecutive same-station RAPs are >= N-1 other RAP events apart.
  const auto raps = of_kind(journal, JournalKind::kRapStart);
  ASSERT_GT(raps.size(), 2 * kN);
  std::map<NodeId, std::size_t> last_index;
  for (std::size_t i = 0; i < raps.size(); ++i) {
    const NodeId station = raps[i].first;
    if (const auto it = last_index.find(station);
        it != last_index.end()) {
      EXPECT_GE(i - it->second, kN - 1)
          << "station " << station << " re-entered the RAP too soon";
    }
    last_index[station] = i;
  }
}

TEST(RapFairness, AtMostOneRapPerRound) {
  Harness h(8, rap_config());
  h.engine.run_slots(6000);
  const auto& stats = h.engine.stats();
  EXPECT_LE(stats.raps_started, stats.sat_rounds + 1);
  // And RAPs genuinely happen (the cost term T_rap is real).
  EXPECT_GT(stats.raps_started, stats.sat_rounds / 3);
}

TEST(RapFairness, DisabledPolicyNeverRaps) {
  Journal journal(kCapacity);
  Harness h(8, Config{}, 1, 2.4, &journal);
  h.engine.run_slots(4000);
  ASSERT_EQ(journal.total_dropped(), 0u);
  EXPECT_EQ(h.engine.stats().raps_started, 0u);
  EXPECT_TRUE(of_kind(journal, JournalKind::kRapStart).empty());
}

/// A 7-node topology ringing only stations 0..5, leaving node 6 as a live
/// joiner candidate for the lossy-handshake tests.
Harness harness_with_joiner(Config config, std::uint64_t seed) {
  config.members = {0, 1, 2, 3, 4, 5};
  return Harness(7, std::move(config), seed);
}

/// Section 2.4.1 under loss: whichever single handshake message is lost
/// (NEXT_FREE, JOIN_REQ, or JOIN_ACK), the join must still complete — via
/// simply hearing the next broadcast, or via the retry/backoff path — and
/// nothing may be half-inserted meanwhile.
TEST(LossyJoin, SingleMessageLossAtEveryPositionStillJoins) {
  for (const auto msg :
       {Engine::ControlMsg::kNextFree, Engine::ControlMsg::kJoinReq,
        Engine::ControlMsg::kJoinAck}) {
    SCOPED_TRACE(static_cast<int>(msg));
    Harness h = harness_with_joiner(rap_config(), 41);
    h.engine.run_slots(100);
    h.engine.request_join(6, {1, 1});
    h.engine.drop_control_once(msg);
    h.engine.run_slots(8000);
    const auto& stats = h.engine.stats();
    EXPECT_GE(stats.control_messages_lost, 1u);
    EXPECT_EQ(stats.joins_completed, 1u);
    EXPECT_EQ(stats.joins_abandoned, 0u);
    EXPECT_TRUE(h.engine.virtual_ring().contains(6));
    EXPECT_EQ(h.engine.virtual_ring().size(), 7u);
    if (msg != Engine::ControlMsg::kNextFree) {
      // A joiner that sent JOIN_REQ and saw no acknowledged insertion
      // backs off; a lost NEXT_FREE is invisible to it (no retry charged).
      EXPECT_GE(stats.join_retries, 1u);
    }
    EXPECT_TRUE(h.engine.check_invariants().ok());
  }
}

/// Engine::register_join_backoff's retry policy: a join is abandoned after
/// 10 lost messages, and the backoff after the a-th loss is
/// 8 << min(a - 1, 6) slots.
constexpr std::uint64_t kJoinMaxAttempts = 10;
constexpr std::int64_t kJoinBackoffBaseSlots = 8;

/// Losing the handshake every single time must end in a clean abandonment
/// after kJoinMaxAttempts: nothing half-inserted, RAP_mutex free, and a
/// later retry under a clean channel succeeds.
TEST(LossyJoin, PersistentLossAbandonsCleanlyWithoutWedgingTheRap) {
  Harness h = harness_with_joiner(rap_config(), 43);
  h.engine.run_slots(100);
  h.engine.request_join(6, {1, 1});
  // Re-arm the drop the moment each one is consumed, so every attempt of
  // the backoff ladder loses its JOIN_REQ (backoff >= base slots keeps the
  // re-arm ahead of the next attempt).
  std::uint64_t seen = 0;
  while (h.engine.stats().joins_abandoned == 0 &&
         h.engine.now_slots() < 60000) {
    h.engine.drop_control_once(Engine::ControlMsg::kJoinReq);
    while (h.engine.stats().control_messages_lost == seen &&
           h.engine.now_slots() < 60000) {
      h.engine.run_slots(1);
    }
    seen = h.engine.stats().control_messages_lost;
  }
  const auto& stats = h.engine.stats();
  EXPECT_EQ(stats.joins_abandoned, 1u);
  EXPECT_EQ(stats.join_retries, kJoinMaxAttempts);
  EXPECT_EQ(stats.joins_completed, 0u);
  EXPECT_FALSE(h.engine.virtual_ring().contains(6));
  EXPECT_EQ(h.engine.virtual_ring().size(), 6u);
  EXPECT_TRUE(h.engine.check_invariants().ok());

  // The RAP machinery survived: a fresh, loss-free join goes through.
  const auto raps_before = h.engine.stats().raps_started;
  h.engine.request_join(6, {1, 1});
  h.engine.run_slots(4000);
  EXPECT_GT(h.engine.stats().raps_started, raps_before);
  EXPECT_EQ(h.engine.stats().joins_completed, 1u);
  EXPECT_TRUE(h.engine.virtual_ring().contains(6));
}

/// Runs station 6's join with every JOIN_REQ lost until the join is
/// abandoned (or `horizon` slots pass); returns the slot of each loss.
std::vector<std::int64_t> join_req_loss_slots(const Config& config,
                                              std::uint64_t seed,
                                              std::int64_t horizon) {
  Harness h = harness_with_joiner(config, seed);
  h.engine.run_slots(100);
  h.engine.request_join(6, {1, 1});
  std::vector<std::int64_t> loss_slots;
  std::uint64_t seen = 0;
  while (h.engine.stats().joins_abandoned == 0 &&
         h.engine.now_slots() < horizon) {
    h.engine.drop_control_once(Engine::ControlMsg::kJoinReq);
    while (h.engine.stats().control_messages_lost == seen &&
           h.engine.now_slots() < horizon) {
      h.engine.run_slots(1);
    }
    if (h.engine.stats().control_messages_lost > seen) {
      seen = h.engine.stats().control_messages_lost;
      loss_slots.push_back(h.engine.now_slots());
    }
  }
  return loss_slots;
}

/// Exponential backoff must actually space the retries out: with the
/// channel losing every control message, later attempts are further apart.
/// The RAP cadence quantises the short early backoffs; deep in the ladder
/// (from the 5th loss, base << 4 slots) the doubling dominates it.
TEST(LossyJoin, BackoffDelaysGrow) {
  const std::vector<std::int64_t> loss_slots =
      join_req_loss_slots(rap_config(), 47, 40000);
  ASSERT_EQ(loss_slots.size(), kJoinMaxAttempts);
  // The wait after the a-th loss, at least base << (a - 1) slots.
  const auto gap = [&loss_slots](std::size_t loss) {
    return loss_slots[loss] - loss_slots[loss - 1];
  };
  for (std::size_t loss = 5; loss <= 7; ++loss) {
    SCOPED_TRACE(loss);
    EXPECT_GE(gap(loss), kJoinBackoffBaseSlots << (loss - 1));
    EXPECT_GT(gap(loss), gap(loss - 1));
  }
}

/// The doubling stops at base << 6: from the 7th lost JOIN_REQ on, each
/// backoff is base << 6 slots, so the gaps after losses 7, 8 and 9 are
/// equal, at least base << 6 and short of base << 7.
TEST(LossyJoin, BackoffStopsDoublingAtTheCap) {
  const std::vector<std::int64_t> loss_slots =
      join_req_loss_slots(rap_config(), 47, 40000);
  ASSERT_EQ(loss_slots.size(), kJoinMaxAttempts);
  const std::int64_t base = kJoinBackoffBaseSlots;
  const auto capped_gap = loss_slots[7] - loss_slots[6];
  for (std::size_t loss = 7; loss <= 9; ++loss) {
    SCOPED_TRACE(loss);
    const auto gap = loss_slots[loss] - loss_slots[loss - 1];
    EXPECT_EQ(gap, capped_gap);
    EXPECT_GE(gap, base << 6);
    EXPECT_LT(gap, base << 7);
  }
}

}  // namespace
}  // namespace wrt::wrtring
