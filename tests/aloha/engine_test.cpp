#include "aloha/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace wrt::aloha {
namespace {

/// Dense room: every station hears every other, so any two simultaneous
/// transmitters collide — the textbook slotted-Aloha channel.
phy::Topology room(std::size_t n) {
  return phy::Topology(phy::placement::circle(n, 5.0),
                       phy::RadioParams{100.0, 0.0});
}

struct Harness {
  Harness(std::size_t n, AlohaConfig config = {}, std::uint64_t seed = 1)
      : topology(room(n)), engine(&topology, std::move(config), seed) {
    const auto status = engine.init();
    if (!status.ok()) {
      throw std::runtime_error(status.error().message);
    }
  }
  phy::Topology topology;
  AlohaEngine engine;
};

traffic::FlowSpec cbr_flow(FlowId id, NodeId src, NodeId dst,
                           double period = 20.0,
                           TrafficClass cls = TrafficClass::kRealTime) {
  traffic::FlowSpec spec;
  spec.id = id;
  spec.src = src;
  spec.dst = dst;
  spec.cls = cls;
  spec.kind = traffic::ArrivalKind::kCbr;
  spec.period_slots = period;
  spec.deadline_slots = cls == TrafficClass::kRealTime ? 10000 : 0;
  return spec;
}

TEST(AlohaInit, RequiresAliveStations) {
  phy::Topology topology = room(4);
  for (NodeId n = 0; n < 4; ++n) topology.set_alive(n, false);
  AlohaEngine engine(&topology, AlohaConfig{}, 1);
  EXPECT_FALSE(engine.init().ok());
}

TEST(AlohaInit, RejectsBadConfig) {
  phy::Topology topology = room(4);
  AlohaConfig config;
  config.cw_min = 8;
  config.cw_max = 4;
  AlohaEngine engine(&topology, config, 1);
  EXPECT_FALSE(engine.init().ok());
}

TEST(AlohaUncontended, DeliversNextSlot) {
  // A single light flow never collides: every frame goes out the slot it
  // arrives in, so access delay is ~0 and nothing is dropped.
  Harness h(8);
  h.engine.add_source(cbr_flow(1, 0, 4));
  h.engine.run_slots(2000);
  const AlohaStats& stats = h.engine.stats();
  EXPECT_GT(stats.successes, 90u);
  EXPECT_EQ(stats.collisions, 0u);
  EXPECT_EQ(stats.retry_drops, 0u);
  EXPECT_LT(stats.access_delay_slots.mean(), 1.0);
  EXPECT_TRUE(h.engine.check_invariants().ok());
}

TEST(AlohaContention, TwoSaturatedStationsCollideAndRecover) {
  Harness h(8);
  traffic::FlowSpec a = cbr_flow(1, 0, 4);
  traffic::FlowSpec b = cbr_flow(2, 1, 5);
  h.engine.add_saturated_source(a, 2);
  h.engine.add_saturated_source(b, 2);
  h.engine.run_slots(4000);
  const AlohaStats& stats = h.engine.stats();
  // Both start backlogged in slot 0: the first slot must collide, and BEB
  // must then de-synchronise them into sustained successes.
  EXPECT_GT(stats.collisions, 0u);
  EXPECT_GT(stats.successes, 1000u);
  EXPECT_TRUE(h.engine.check_invariants().ok());
}

TEST(AlohaSaturation, ThroughputNearTheContentionCeiling) {
  // 16 always-backlogged stations: delivered throughput must sit well below
  // the slot rate (collisions burn slots) but well above zero (BEB keeps
  // the channel usable) — the saturation regime the capacity bench leans on.
  Harness h(16);
  for (NodeId node = 0; node < 16; ++node) {
    h.engine.add_saturated_source(
        cbr_flow(node + 1, node, (node + 8) % 16), 2);
  }
  const std::int64_t slots = 20000;
  h.engine.run_slots(slots);
  const double throughput =
      h.engine.stats().sink.throughput(0, slots_to_ticks(slots));
  EXPECT_GT(throughput, 0.08);
  EXPECT_LT(throughput, 0.7);
  EXPECT_GT(h.engine.stats().collisions, 100u);
  EXPECT_TRUE(h.engine.check_invariants().ok());
}

TEST(AlohaSaturation, SuccessRateMatchesTheClosedForm) {
  // With cw_min = cw_max = 1 every backoff is 0, so each always-backlogged
  // station transmits in every slot with probability p, independently of
  // the others and of its own past.  In a dense room a slot succeeds iff
  // exactly one station transmits: S = N p (1 - p)^(N - 1) per slot.
  constexpr std::int64_t kSlots = 20000;
  constexpr std::uint32_t kStations[] = {2, 4, 8, 16, 32};
  constexpr double kPersistence[] = {0.05, 0.1, 0.2, 0.3, 0.5};
  for (const std::uint32_t n : kStations) {
    for (const double p : kPersistence) {
      AlohaConfig config;
      config.p_persist = p;
      config.cw_min = 1;
      config.cw_max = 1;
      Harness h(n, config);
      for (NodeId node = 0; node < n; ++node) {
        h.engine.add_saturated_source(
            cbr_flow(node + 1, node, (node + 1) % n, 20.0,
                     TrafficClass::kBestEffort),
            2);
      }
      h.engine.run_slots(kSlots);
      const double s = n * p * std::pow(1.0 - p, n - 1);
      const double slots = static_cast<double>(kSlots);
      const double sigma = std::sqrt(slots * s * (1.0 - s));
      const auto successes =
          static_cast<double>(h.engine.stats().successes);
      EXPECT_LE(std::abs(successes - slots * s), 4.0 * sigma)
          << "N=" << n << " p=" << p << ": " << successes
          << " successes, closed form " << slots * s;
    }
  }
}

TEST(AlohaRetryLimit, DropsAfterMaxAttempts) {
  AlohaConfig config;
  config.max_attempts = 2;
  config.cw_min = 1;
  config.cw_max = 2;  // keep the duel colliding often
  Harness h(4, config);
  h.engine.add_saturated_source(cbr_flow(1, 0, 2), 2);
  h.engine.add_saturated_source(cbr_flow(2, 1, 3), 2);
  h.engine.run_slots(2000);
  EXPECT_GT(h.engine.stats().retry_drops, 0u);
  EXPECT_TRUE(h.engine.check_invariants().ok());
}

TEST(AlohaChannel, GilbertElliottLossesRetryAndCount) {
  AlohaConfig config;
  config.channel.data = fault::GeParams::iid(0.3);
  Harness h(8, config);
  h.engine.add_source(cbr_flow(1, 0, 4, 10.0));
  h.engine.run_slots(4000);
  const AlohaStats& stats = h.engine.stats();
  EXPECT_GT(stats.channel_losses, 0u);
  // Retransmission recovers most fades at this rate.
  EXPECT_GT(stats.successes, 300u);
  EXPECT_TRUE(h.engine.check_invariants().ok());
}

TEST(AlohaChannel, DegradeAndHealLink) {
  AlohaConfig config;
  config.max_attempts = 6;  // keep the per-frame BEB wait short
  Harness h(8, config);
  h.engine.add_source(cbr_flow(1, 0, 4, 10.0));
  h.engine.degrade_link(0, 4, fault::GeParams::iid(1.0));
  h.engine.run_slots(1000);
  // Total loss on the only link: nothing delivered, frames die at the
  // retry limit.
  EXPECT_EQ(h.engine.stats().successes, 0u);
  EXPECT_GT(h.engine.stats().retry_drops, 0u);
  h.engine.heal_link(0, 4);
  const std::uint64_t before = h.engine.stats().successes;
  h.engine.run_slots(1000);
  EXPECT_GT(h.engine.stats().successes, before);
  EXPECT_TRUE(h.engine.check_invariants().ok());
}

TEST(AlohaChannel, DisabledChannelMakesNoDraws) {
  // Digest parity: configuring a disabled channel must not change behaviour
  // relative to the default config (zero-draw contract).
  Harness a(8, AlohaConfig{}, 9);
  AlohaConfig with_channel;
  with_channel.channel.data = fault::GeParams::iid(0.0);
  Harness b(8, with_channel, 9);
  for (Harness* h : {&a, &b}) {
    h->engine.add_saturated_source(cbr_flow(1, 0, 4), 2);
    h->engine.add_saturated_source(cbr_flow(2, 1, 5), 2);
    h->engine.run_slots(3000);
  }
  EXPECT_EQ(a.engine.stats().successes, b.engine.stats().successes);
  EXPECT_EQ(a.engine.stats().collisions, b.engine.stats().collisions);
}

TEST(AlohaKill, DeadStationStopsAndDstFramesDie) {
  AlohaConfig config;
  config.max_attempts = 6;  // a doomed frame dies in ~100 slots, not ~5000
  Harness h(8, config);
  h.engine.add_source(cbr_flow(1, 0, 4, 10.0));
  h.engine.add_source(cbr_flow(2, 4, 0, 10.0));
  h.engine.run_slots(500);
  const std::uint64_t tx_before = h.engine.stats().transmissions;
  h.engine.kill_station(4);
  h.engine.run_slots(2000);
  const AlohaStats& stats = h.engine.stats();
  // Station 4 no longer transmits; station 0's frames to it fail and are
  // eventually dropped by the retry limit.
  EXPECT_GT(stats.unreachable_losses, 0u);
  EXPECT_GT(stats.retry_drops, 0u);
  EXPECT_GT(stats.transmissions, tx_before);
  EXPECT_TRUE(h.engine.check_invariants().ok());
}

TEST(AlohaPersistence, FractionalPersistenceStillDelivers) {
  AlohaConfig config;
  config.p_persist = 0.5;
  Harness h(8, config);
  h.engine.add_source(cbr_flow(1, 0, 4, 10.0));
  h.engine.run_slots(2000);
  EXPECT_GT(h.engine.stats().successes, 150u);
  EXPECT_TRUE(h.engine.check_invariants().ok());
}

TEST(AlohaDeterminism, SameSeedSameRun) {
  auto run = [](std::uint64_t seed) {
    Harness h(12, AlohaConfig{}, seed);
    for (NodeId node = 0; node < 12; ++node) {
      h.engine.add_saturated_source(
          cbr_flow(node + 1, node, (node + 6) % 12), 2);
    }
    h.engine.run_slots(5000);
    return h.engine.stats();
  };
  const AlohaStats a = run(3);
  const AlohaStats b = run(3);
  const AlohaStats c = run(4);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_DOUBLE_EQ(a.access_delay_slots.mean(), b.access_delay_slots.mean());
  // A different seed draws different backoffs.
  EXPECT_NE(a.transmissions, c.transmissions);
}

TEST(AlohaClassPriority, RtPreemptsBestEffort) {
  Harness h(8);
  traffic::FlowSpec rt = cbr_flow(1, 0, 4, 20.0);
  traffic::FlowSpec be = cbr_flow(2, 0, 5, 20.0, TrafficClass::kBestEffort);
  h.engine.add_saturated_source(be, 8);
  h.engine.add_source(rt);
  h.engine.run_slots(4000);
  const auto& sink = h.engine.stats().sink;
  // RT frames from the same station cut the line: their delay stays small
  // even though the BE queue is always full.
  EXPECT_GT(sink.by_class(TrafficClass::kRealTime).delivered, 150u);
  EXPECT_LT(h.engine.stats().rt_access_delay_slots.mean(), 2.0);
}

}  // namespace
}  // namespace wrt::aloha
