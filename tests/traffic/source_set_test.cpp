// traffic::SourceSet — the one traffic surface WRT-Ring, TPT and slotted
// Aloha share — plus the saturated-overfill regression on all three MACs.
#include "traffic/source_set.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "aloha/engine.hpp"
#include "phy/topology.hpp"
#include "tpt/engine.hpp"
#include "wrtring/engine.hpp"

namespace wrt::traffic {
namespace {

FlowSpec poisson_spec(FlowId id, NodeId src) {
  FlowSpec spec;
  spec.id = id;
  spec.src = src;
  spec.dst = src + 1;
  spec.kind = ArrivalKind::kPoisson;
  spec.rate_per_slot = 0.5;
  return spec;
}

FlowSpec saturated_spec(FlowId id, NodeId src) {
  FlowSpec spec;
  spec.id = id;
  spec.src = src;
  spec.dst = src + 1;
  spec.cls = TrafficClass::kBestEffort;
  return spec;
}

/// Per-station FIFO standing in for an engine's class queues.
struct Queues {
  std::size_t capacity = 64;
  std::vector<Packet> by_station[4];

  bool enqueue(Packet& packet) {
    auto& queue = by_station[packet.src];
    if (queue.size() >= capacity) return false;
    queue.push_back(std::move(packet));
    return true;
  }
  std::optional<std::size_t> depth(NodeId node, TrafficClass) const {
    return by_station[node].size();
  }
};

struct Hooks {
  Queues queues;
  std::vector<Packet> seen;  ///< every packet offered, in poll order

  auto enqueue() {
    return [this](Packet& packet) {
      seen.push_back(packet);
      return queues.enqueue(packet);
    };
  }
  auto depth() {
    return [this](NodeId node, TrafficClass cls) {
      return queues.depth(node, cls);
    };
  }
};

TEST(SourceSet, StochasticStreamsUseTheSaltedSeedIn32Bits) {
  // 0xFFFFFFF0 + 0x20 wraps in 32 bits: the stream must be the one every
  // engine has always drawn, seed ^ uint32(salt + flow id).
  const std::uint64_t seed = 0x1234'5678'9ABC'DEF0ULL;
  const std::uint32_t salt = 0xFFFFFFF0u;
  const FlowSpec spec = poisson_spec(0x20, 0);
  SourceSet set(seed, salt, 64);
  set.add_source(spec);
  Hooks hooks;
  Sink sink;
  set.poll(slots_to_ticks(200), hooks.enqueue(), sink);

  TrafficSource reference(spec, seed ^ std::uint32_t{0x10});
  std::vector<Packet> expected;
  reference.poll(slots_to_ticks(200), expected);
  ASSERT_FALSE(expected.empty());
  ASSERT_EQ(hooks.seen.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(hooks.seen[i].created, expected[i].created) << i;
  }
}

TEST(SourceSet, PollsStochasticSourcesThenTraces) {
  SourceSet set(1, 0xABCD1234u, 64);
  set.add_trace_source(Trace({{0, TrafficClass::kRealTime, 2}}), 7, 1, 2, 0);
  FlowSpec cbr = poisson_spec(3, 1);
  cbr.kind = ArrivalKind::kCbr;
  set.add_source(cbr);
  Hooks hooks;
  Sink sink;
  set.poll(0, hooks.enqueue(), sink);
  ASSERT_EQ(hooks.seen.size(), 3u);
  EXPECT_EQ(hooks.seen[0].flow, 3u);
  EXPECT_EQ(hooks.seen[1].flow, 7u);
  EXPECT_EQ(hooks.seen[2].flow, 7u);
}

TEST(SourceSet, RefusedArrivalsAreRecordedAsDrops) {
  SourceSet set(1, 0, 64);
  set.add_trace_source(Trace({{0, TrafficClass::kRealTime, 5}}), 7, 1, 2, 0);
  Hooks hooks;
  hooks.queues.capacity = 3;
  Sink sink;
  set.poll(0, hooks.enqueue(), sink);
  EXPECT_EQ(hooks.queues.by_station[1].size(), 3u);
  EXPECT_EQ(sink.by_class(TrafficClass::kRealTime).dropped, 2u);
}

TEST(SourceSet, TopUpTransmittedRefillsOnlyNotedStations) {
  SourceSet set(1, 0, 64);
  set.add_saturated_source(saturated_spec(1, 0), 3);
  set.add_saturated_source(saturated_spec(2, 1), 3);
  Hooks hooks;
  // A new bound forces one full pass before the transmitted-only regime.
  set.top_up_transmitted(0, hooks.depth(), hooks.enqueue());
  EXPECT_EQ(hooks.queues.by_station[0].size(), 3u);
  EXPECT_EQ(hooks.queues.by_station[1].size(), 3u);

  hooks.queues.by_station[0].pop_back();
  hooks.queues.by_station[1].pop_back();
  set.note_transmit(0);
  set.note_transmit(3);  // no bound there: ignored
  set.top_up_transmitted(0, hooks.depth(), hooks.enqueue());
  EXPECT_EQ(hooks.queues.by_station[0].size(), 3u);
  EXPECT_EQ(hooks.queues.by_station[1].size(), 2u);

  set.top_up_all(0, hooks.depth(), hooks.enqueue());
  EXPECT_EQ(hooks.queues.by_station[1].size(), 3u);
}

TEST(SourceSet, TwoBoundsOnOneStationRefillEveryBoundEachTime) {
  SourceSet set(1, 0, 64);
  set.add_saturated_source(saturated_spec(1, 0), 2);
  set.add_saturated_source(saturated_spec(2, 1), 2);
  set.add_saturated_source(saturated_spec(3, 1), 3);
  Hooks hooks;
  set.top_up_all(0, hooks.depth(), hooks.enqueue());
  hooks.queues.by_station[0].clear();
  // Nothing noted, yet the shared station keeps every bound on the full
  // pass.
  set.top_up_transmitted(0, hooks.depth(), hooks.enqueue());
  EXPECT_EQ(hooks.queues.by_station[0].size(), 2u);
}

// ---------------------------------------------------------------------------
// Saturated overfill: a backlog above the queue capacity must stop at the
// capacity on every MAC.
// ---------------------------------------------------------------------------

enum class Mac { kWrtRing, kTpt, kAloha };

struct Outcome {
  std::optional<std::size_t> depth;
  bool invariants_ok = false;
  std::uint64_t refused = 0;  ///< top-up packets a queue turned away
};

template <typename Engine, typename Config>
Outcome one_saturated_slot(Config config) {
  phy::Topology topology(phy::placement::circle(4, 5.0),
                         phy::RadioParams{100.0, 0.0});
  config.queue_capacity = 2;
  Engine engine(&topology, config, /*seed=*/1);
  EXPECT_TRUE(engine.init().ok());
  FlowSpec spec = saturated_spec(1, 0);
  spec.cls = TrafficClass::kRealTime;
  engine.add_saturated_source(spec, /*backlog=*/8);
  engine.step();
  Outcome outcome;
  outcome.depth = engine.queue_depth(0, TrafficClass::kRealTime);
  outcome.invariants_ok = engine.check_invariants().ok();
  if constexpr (std::is_same_v<Engine, wrtring::Engine>) {
    outcome.refused = engine.station(0).queue_drops();
  } else {
    outcome.refused =
        engine.stats().sink.by_class(TrafficClass::kRealTime).dropped;
  }
  return outcome;
}

class SaturatedOverfill : public ::testing::TestWithParam<Mac> {};

TEST_P(SaturatedOverfill, TopUpStopsAtQueueCapacity) {
  Outcome outcome;
  switch (GetParam()) {
    case Mac::kWrtRing:
      outcome = one_saturated_slot<wrtring::Engine>(wrtring::Config{});
      break;
    case Mac::kTpt:
      outcome = one_saturated_slot<tpt::TptEngine>(tpt::TptConfig{});
      break;
    case Mac::kAloha:
      outcome = one_saturated_slot<aloha::AlohaEngine>(aloha::AlohaConfig{});
      break;
  }
  ASSERT_TRUE(outcome.depth.has_value());
  EXPECT_LE(*outcome.depth, 2u);
  EXPECT_TRUE(outcome.invariants_ok);
  EXPECT_EQ(outcome.refused, 0u);
}

std::string mac_name(const ::testing::TestParamInfo<Mac>& info) {
  switch (info.param) {
    case Mac::kWrtRing: return "WrtRing";
    case Mac::kTpt: return "Tpt";
    case Mac::kAloha: return "Aloha";
  }
  return "?";
}

INSTANTIATE_TEST_SUITE_P(AllMacs, SaturatedOverfill,
                         ::testing::Values(Mac::kWrtRing, Mac::kTpt,
                                           Mac::kAloha),
                         mac_name);

}  // namespace
}  // namespace wrt::traffic
