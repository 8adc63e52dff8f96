#include "analysis/bounds.hpp"

#include <gtest/gtest.h>

namespace wrt::analysis {
namespace {

RingParams uniform_params(std::int64_t s, std::int64_t t_rap, std::size_t n,
                          Quota quota) {
  RingParams params;
  params.ring_latency_slots = s;
  params.t_rap_slots = t_rap;
  params.quotas.assign(n, quota);
  return params;
}

TEST(Theorem1, MatchesEquation1) {
  RingParams params;
  params.ring_latency_slots = 8;
  params.t_rap_slots = 6;
  params.quotas = {{1, 2}, {3, 1}, {2, 2}};  // sum(l+k) = 11
  EXPECT_EQ(sat_time_bound(params), 8 + 6 + 2 * 11);
}

TEST(Proposition1, UniformEqualsGeneral) {
  const Quota quota{2, 3};
  const auto params = uniform_params(10, 4, 8, quota);
  EXPECT_EQ(sat_time_bound(params), sat_time_bound_uniform(10, 4, 8, quota));
  EXPECT_EQ(sat_time_bound_uniform(10, 4, 8, quota), 10 + 4 + 2 * 8 * 5);
}

TEST(Theorem2, MatchesEquation3) {
  RingParams params;
  params.ring_latency_slots = 5;
  params.t_rap_slots = 3;
  params.quotas = {{1, 1}, {2, 2}};  // sum = 6
  // n S + n T_rap + (n+1) sum
  EXPECT_EQ(sat_time_n_rounds_bound(params, 1), 5 + 3 + 2 * 6);
  EXPECT_EQ(sat_time_n_rounds_bound(params, 4), 4 * 5 + 4 * 3 + 5 * 6);
}

TEST(Theorem2, OneRoundDominatesTheorem1) {
  // Eq (3) with n = 1 gives S + T_rap + 2 sum, the same value Eq (1)
  // strictly bounds — consistency between the two statements.
  const auto params = uniform_params(7, 2, 5, {1, 2});
  EXPECT_EQ(sat_time_n_rounds_bound(params, 1), sat_time_bound(params));
}

TEST(Theorem2, RejectsNonPositiveN) {
  const auto params = uniform_params(5, 0, 3, {1, 1});
  EXPECT_THROW((void)sat_time_n_rounds_bound(params, 0),
               std::invalid_argument);
}

TEST(Proposition2, UniformEqualsGeneral) {
  const Quota quota{1, 2};
  const auto params = uniform_params(9, 5, 6, quota);
  for (std::int64_t n = 1; n <= 8; ++n) {
    EXPECT_EQ(sat_time_n_rounds_bound(params, n),
              sat_time_n_rounds_bound_uniform(9, 5, 6, quota, n));
  }
}

TEST(Proposition3, AverageIsBelowWorstCase) {
  const auto params = uniform_params(12, 6, 10, {2, 2});
  EXPECT_EQ(expected_sat_time(params), 12 + 6 + 10 * 4);
  EXPECT_LT(expected_sat_time(params), sat_time_bound(params));
}

TEST(Proposition3, IsLimitOfTheorem2) {
  // E[SAT_TIME] = lim n->inf SAT_TIME[n] / n = S + T_rap + sum.
  const auto params = uniform_params(11, 3, 7, {1, 3});
  const std::int64_t big_n = 1000000;
  const double limit = static_cast<double>(
                           sat_time_n_rounds_bound(params, big_n)) /
                       static_cast<double>(big_n);
  EXPECT_NEAR(limit, static_cast<double>(expected_sat_time(params)), 0.1);
}

TEST(Theorem3, MatchesEquation6) {
  RingParams params = uniform_params(4, 0, 3, {2, 1});
  // x = 0, l = 2: ceil(1/2) + 1 = 2 rounds.
  EXPECT_EQ(access_time_bound(params, 0, 0),
            sat_time_n_rounds_bound(params, 2));
  // x = 3, l = 2: ceil(4/2) + 1 = 3 rounds.
  EXPECT_EQ(access_time_bound(params, 0, 3),
            sat_time_n_rounds_bound(params, 3));
}

TEST(Theorem3, MonotoneInQueueDepth) {
  const auto params = uniform_params(6, 2, 4, {2, 2});
  std::int64_t previous = 0;
  for (std::int64_t x = 0; x <= 20; ++x) {
    const std::int64_t bound = access_time_bound(params, 1, x);
    EXPECT_GE(bound, previous);
    previous = bound;
  }
}

TEST(Theorem3, LargerQuotaTightensBound) {
  auto small_l = uniform_params(6, 2, 4, {1, 2});
  auto large_l = uniform_params(6, 2, 4, {4, 2});
  // More authorizations per round -> fewer rounds to drain the same queue.
  EXPECT_GT(access_time_bound(small_l, 0, 10),
            access_time_bound(large_l, 0, 10));
}

TEST(Theorem3, Validation) {
  const auto params = uniform_params(6, 2, 4, {2, 2});
  EXPECT_THROW((void)access_time_bound(params, 9, 0), std::out_of_range);
  EXPECT_THROW((void)access_time_bound(params, 0, -1), std::invalid_argument);
  auto zero_l = uniform_params(6, 2, 4, {0, 2});
  EXPECT_THROW((void)access_time_bound(zero_l, 0, 0), std::invalid_argument);
}

TEST(TptBound, MatchesEquation7) {
  TptParams params;
  params.h_sync_slots = {2, 3, 1, 2};  // sum = 8
  params.t_proc_plus_prop_slots = 1.5;
  params.t_rap_slots = 4;
  params.ttrt_slots = 50;
  // sum H + 2 (N-1)(Tproc+Tprop) + T_rap = 8 + 2*3*1.5 + 4 = 21
  EXPECT_DOUBLE_EQ(tpt_round_bound(params), 21.0);
}

TEST(TptFeasibility, HalfDeadlineRule) {
  TptParams params;
  params.h_sync_slots = {2, 2};
  params.t_proc_plus_prop_slots = 1.0;
  params.t_rap_slots = 0;
  params.ttrt_slots = 10;
  // bound = 4 + 2 = 6; feasible iff D/2 >= 6.
  EXPECT_TRUE(tpt_feasible(params, 12));
  EXPECT_FALSE(tpt_feasible(params, 11));
}

TEST(TptReaction, IsTwiceTtrt) {
  TptParams params;
  params.ttrt_slots = 37;
  EXPECT_EQ(tpt_reaction_bound(params), 74);
}

TEST(HopCounts, Section321) {
  // Figure 4: N = 3 -> token 4 links, SAT 3 links.
  EXPECT_EQ(tpt_hops_per_round(3), 4);
  EXPECT_EQ(wrt_hops_per_round(3), 3);
  for (std::int64_t n = 2; n <= 128; ++n) {
    EXPECT_EQ(tpt_hops_per_round(n), 2 * (n - 1));
    EXPECT_EQ(wrt_hops_per_round(n), n);
    if (n > 2) {
      EXPECT_GT(tpt_hops_per_round(n), wrt_hops_per_round(n));
    }
  }
}

TEST(SignalRoundTrip, Section33TokenSlowerThanSat) {
  // "the token needs more time to complete one round trip with respect to
  // the SAT rotation time" for all N > 2.
  for (std::int64_t n = 3; n <= 64; ++n) {
    for (const double t_sig : {0.5, 1.0, 2.0, 4.0}) {
      EXPECT_GT(tpt_signal_round_trip(n, t_sig, 6.0),
                wrt_signal_round_trip(n, t_sig, 6.0))
          << "n = " << n << ", t_sig = " << t_sig;
    }
  }
}

TEST(SignalRoundTrip, EqualAtNTwo) {
  EXPECT_DOUBLE_EQ(tpt_signal_round_trip(2, 1.0, 0.0),
                   wrt_signal_round_trip(2, 1.0, 0.0));
}

TEST(RingParams, QuotaSum) {
  RingParams params;
  params.quotas = {{1, 2}, {0, 0}, {5, 5}};
  EXPECT_EQ(params.quota_sum(), 13);
  EXPECT_EQ(params.stations(), 3u);
}

}  // namespace
}  // namespace wrt::analysis
