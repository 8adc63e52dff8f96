#include "analysis/allocation.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace wrt::analysis {
namespace {

AllocationInput base_input() {
  AllocationInput input;
  input.ring_latency_slots = 8;
  input.t_rap_slots = 0;
  input.k_per_station = 1;
  input.total_l_budget = 8;
  input.flows = {
      {0, 100, 2, 400},
      {1, 200, 2, 600},
      {2, 50, 1, 500},
  };
  return input;
}

std::int64_t total_l(const RingParams& params) {
  std::int64_t sum = 0;
  for (const Quota& q : params.quotas) sum += q.l;
  return sum;
}

TEST(Allocation, EqualPartitionSplitsEvenly) {
  auto input = base_input();
  input.total_l_budget = 9;
  const auto result = allocate(AllocationScheme::kEqualPartition, input, 3);
  ASSERT_TRUE(result.ok());
  for (const auto& flow : input.flows) {
    EXPECT_EQ(result.value().quotas[flow.station].l, 3u);
  }
}

TEST(Allocation, BudgetIsFullyAssigned) {
  for (const auto scheme :
       {AllocationScheme::kEqualPartition, AllocationScheme::kProportional,
        AllocationScheme::kNormalizedProportional}) {
    const auto result = allocate(scheme, base_input(), 3);
    ASSERT_TRUE(result.ok()) << to_string(scheme);
    EXPECT_EQ(total_l(result.value()), 8) << to_string(scheme);
  }
}

TEST(Allocation, ProportionalFavoursHeavyFlows) {
  const auto result = allocate(AllocationScheme::kProportional, base_input(), 3);
  ASSERT_TRUE(result.ok());
  // Utilisations: 0.02, 0.01, 0.02 — stations 0 and 2 should get at least
  // as much as station 1.
  EXPECT_GE(result.value().quotas[0].l, result.value().quotas[1].l);
  EXPECT_GE(result.value().quotas[2].l, result.value().quotas[1].l);
}

TEST(Allocation, EveryFlowStationGetsSomething) {
  auto input = base_input();
  input.total_l_budget = 3;
  for (const auto scheme :
       {AllocationScheme::kEqualPartition, AllocationScheme::kProportional,
        AllocationScheme::kNormalizedProportional}) {
    const auto result = allocate(scheme, input, 3);
    ASSERT_TRUE(result.ok());
    for (const auto& flow : input.flows) {
      EXPECT_GE(result.value().quotas[flow.station].l, 1u)
          << to_string(scheme);
    }
  }
}

TEST(Allocation, StationsWithoutFlowsGetZeroL) {
  const auto result =
      allocate(AllocationScheme::kEqualPartition, base_input(), 5);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().quotas[3].l, 0u);
  EXPECT_EQ(result.value().quotas[4].l, 0u);
  EXPECT_EQ(result.value().quotas[3].k, 1u);  // BE quota still granted
}

TEST(Allocation, CopiesRingGeometry) {
  const auto result =
      allocate(AllocationScheme::kEqualPartition, base_input(), 3);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().ring_latency_slots, 8);
  EXPECT_EQ(result.value().t_rap_slots, 0);
}

TEST(Allocation, RejectsDuplicateStations) {
  auto input = base_input();
  input.flows.push_back({0, 10, 1, 100});
  EXPECT_FALSE(allocate(AllocationScheme::kEqualPartition, input, 3).ok());
}

TEST(Allocation, RejectsOutOfRangeStation) {
  auto input = base_input();
  input.flows.push_back({7, 10, 1, 100});
  EXPECT_FALSE(allocate(AllocationScheme::kEqualPartition, input, 3).ok());
}

TEST(Allocation, RejectsZeroBudgetWithFlows) {
  auto input = base_input();
  input.total_l_budget = 0;
  EXPECT_FALSE(allocate(AllocationScheme::kProportional, input, 3).ok());
}

TEST(Allocation, RejectsNonPositivePeriod) {
  auto input = base_input();
  input.flows[0].period_slots = 0;
  EXPECT_FALSE(allocate(AllocationScheme::kEqualPartition, input, 3).ok());
}

TEST(Allocation, NpaRejectsOverload) {
  AllocationInput input = base_input();
  input.flows = {{0, 10, 6, 100}, {1, 10, 6, 100}};  // U = 1.2
  const auto result =
      allocate(AllocationScheme::kNormalizedProportional, input, 2);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, util::Error::Code::kCapacityExceeded);
}

TEST(Allocation, NpaWeighsTightDeadlines) {
  AllocationInput input;
  input.ring_latency_slots = 4;
  input.k_per_station = 0;
  input.total_l_budget = 10;
  // Same utilisation, very different deadlines (one tighter than its
  // period, which is what the deadline factor responds to).
  input.flows = {{0, 100, 1, 1000}, {1, 100, 1, 50}};
  const auto result =
      allocate(AllocationScheme::kNormalizedProportional, input, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().quotas[1].l, result.value().quotas[0].l);
}

TEST(Feasibility, AcceptsGenerousAllocation) {
  const auto params =
      allocate(AllocationScheme::kEqualPartition, base_input(), 3);
  ASSERT_TRUE(params.ok());
  EXPECT_TRUE(check_feasibility(params.value(), base_input().flows).ok());
}

TEST(Feasibility, RejectsTightDeadline) {
  auto input = base_input();
  input.flows[0].deadline_slots = 1;  // impossible
  const auto params = allocate(AllocationScheme::kEqualPartition, input, 3);
  ASSERT_TRUE(params.ok());
  const auto status = check_feasibility(params.value(), input.flows);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, util::Error::Code::kAdmissionRejected);
}

TEST(Feasibility, RejectsZeroQuotaStation) {
  RingParams params;
  params.ring_latency_slots = 4;
  params.quotas = {{0, 1}};
  const std::vector<RtRequirement> flows = {{0, 100, 1, 1000}};
  EXPECT_FALSE(check_feasibility(params, flows).ok());
}

TEST(Feasibility, TheoremThreeConsistency) {
  // An allocation is accepted exactly when every flow's Theorem-3 bound
  // fits its deadline; check the boundary value.
  RingParams params;
  params.ring_latency_slots = 4;
  params.t_rap_slots = 0;
  params.quotas = {{1, 0}, {1, 0}, {1, 0}};
  const std::int64_t exact = access_time_bound(params, 0, 0);
  EXPECT_TRUE(
      check_feasibility(params, {{0, 100, 1, exact}}).ok());
  EXPECT_FALSE(
      check_feasibility(params, {{0, 100, 1, exact - 1}}).ok());
}

TEST(SchemeNames, Stringify) {
  EXPECT_EQ(to_string(AllocationScheme::kEqualPartition), "equal-partition");
  EXPECT_EQ(to_string(AllocationScheme::kProportional), "proportional");
  EXPECT_EQ(to_string(AllocationScheme::kNormalizedProportional),
            "normalized-proportional");
}

}  // namespace
}  // namespace wrt::analysis
