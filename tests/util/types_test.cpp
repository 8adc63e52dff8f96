#include "util/types.hpp"

#include <gtest/gtest.h>

#include "util/math.hpp"

namespace wrt {
namespace {

TEST(Time, SlotTickConversionRoundTrips) {
  for (std::int64_t slots : {0l, 1l, 7l, 1000l}) {
    EXPECT_EQ(ticks_to_slots(slots_to_ticks(slots)), slots);
  }
}

TEST(Time, TicksPerSlotIsPowerOfTwo) {
  EXPECT_EQ(kTicksPerSlot & (kTicksPerSlot - 1), 0);
  EXPECT_GT(kTicksPerSlot, 0);
}

TEST(Time, RealConversion) {
  EXPECT_DOUBLE_EQ(ticks_to_slots_real(kTicksPerSlot), 1.0);
  EXPECT_DOUBLE_EQ(ticks_to_slots_real(kTicksPerSlot / 2), 0.5);
}

TEST(Quota, TotalSumsBoth) {
  constexpr Quota q{3, 5};
  EXPECT_EQ(q.total(), 8u);
}

TEST(Quota, Comparison) {
  constexpr Quota a{1, 2};
  constexpr Quota b{1, 2};
  constexpr Quota c{2, 2};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(TrafficClassNames, AllStringify) {
  EXPECT_EQ(to_string(TrafficClass::kRealTime), "real-time");
  EXPECT_EQ(to_string(TrafficClass::kAssured), "assured");
  EXPECT_EQ(to_string(TrafficClass::kBestEffort), "best-effort");
}

TEST(Math, CeilDiv) {
  EXPECT_EQ(util::ceil_div(0, 3), 0);
  EXPECT_EQ(util::ceil_div(1, 3), 1);
  EXPECT_EQ(util::ceil_div(3, 3), 1);
  EXPECT_EQ(util::ceil_div(4, 3), 2);
  EXPECT_EQ(util::ceil_div(9, 3), 3);
  EXPECT_EQ(util::ceil_div(10, 3), 4);
}

// Theorem 3 uses ceil((x+1)/l): spot-check the paper's indexing.
TEST(Math, Theorem3CeilIndexing) {
  const std::int64_t l = 2;
  EXPECT_EQ(util::ceil_div(0 + 1, l), 1);  // x = 0: one round of l
  EXPECT_EQ(util::ceil_div(1 + 1, l), 1);  // x = 1: still one round
  EXPECT_EQ(util::ceil_div(2 + 1, l), 2);  // x = 2: spills into a second
}

}  // namespace
}  // namespace wrt
