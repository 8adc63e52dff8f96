#include "wrtring/config.hpp"

#include <gtest/gtest.h>

#include "tests/wrtring/test_helpers.hpp"

namespace wrt::wrtring {
namespace {

TEST(ConfigValidate, DefaultIsValid) {
  EXPECT_TRUE(Config{}.validate().ok());
}

TEST(ConfigValidate, HopLatencyPositive) {
  Config config;
  config.hop_latency_slots = 0;
  EXPECT_FALSE(config.validate().ok());
}

TEST(ConfigValidate, NegativeSatHopRejected) {
  Config config;
  config.sat_hop_latency_slots = -1;
  EXPECT_FALSE(config.validate().ok());
}

TEST(ConfigValidate, RapHandshakeNeedsThreeEarSlots) {
  Config config;
  config.rap_policy = RapPolicy::kRotating;
  config.t_ear_slots = 2;
  EXPECT_FALSE(config.validate().ok());
  config.t_ear_slots = 3;
  EXPECT_TRUE(config.validate().ok());
}

TEST(ConfigValidate, RapUpdatePhaseNonEmpty) {
  Config config;
  config.rap_policy = RapPolicy::kRotating;
  config.t_update_slots = 0;
  EXPECT_FALSE(config.validate().ok());
}

TEST(ConfigValidate, EarSlotsIrrelevantWithoutRap) {
  Config config;
  config.t_ear_slots = 0;  // fine: RAP disabled
  EXPECT_TRUE(config.validate().ok());
}

TEST(ConfigValidate, SplitCannotExceedK) {
  Config config;
  config.default_quota = {1, 2};
  config.k1_assured = 3;
  EXPECT_FALSE(config.validate().ok());
  config.k1_assured = 2;
  EXPECT_TRUE(config.validate().ok());
}

TEST(ConfigValidate, SplitCheckedAgainstPerStationQuotas) {
  Config config;
  config.default_quota = {1, 4};
  config.k1_assured = 2;
  config.station_quotas = {{1, 4}, {1, 1}};  // second station's k < k1
  EXPECT_FALSE(config.validate().ok());
}

TEST(ConfigValidate, LossProbabilityRange) {
  Config config;
  config.channel.data = fault::GeParams::iid(1.0);
  EXPECT_FALSE(config.validate().ok());
  config.channel.data = fault::GeParams::iid(-0.1);
  EXPECT_FALSE(config.validate().ok());
  config.channel.data = fault::GeParams::iid(0.5);
  config.channel.sat = fault::GeParams::iid(0.999);
  EXPECT_TRUE(config.validate().ok());
}

TEST(ConfigValidate, AutoRejoinNeedsRap) {
  Config config;
  config.auto_rejoin = true;
  EXPECT_FALSE(config.validate().ok());
  config.rap_policy = RapPolicy::kRotating;
  EXPECT_TRUE(config.validate().ok());
}

TEST(ConfigValidate, QueueCapacityPositive) {
  Config config;
  config.queue_capacity = 0;
  EXPECT_FALSE(config.validate().ok());
}

TEST(ConfigValidate, EngineInitRejectsInvalidConfig) {
  Config config;
  config.auto_rejoin = true;  // without RAP: invalid
  phy::Topology topology = testing::circle_topology(6);
  Engine engine(&topology, config, 1);
  const auto status = engine.init();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, util::Error::Code::kInvalidArgument);
}

}  // namespace
}  // namespace wrt::wrtring
