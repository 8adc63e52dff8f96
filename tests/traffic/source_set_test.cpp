// traffic::SourceSet — the one traffic surface WRT-Ring, TPT and slotted
// Aloha share — plus the saturated-overfill regression on all three MACs.
#include "traffic/source_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "aloha/engine.hpp"
#include "phy/topology.hpp"
#include "tpt/engine.hpp"
#include "util/rng.hpp"
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
// Poll equivalence: SourceSet::poll offers the same packets, in the same
// order, as a loop that visits every source on every poll.
// ---------------------------------------------------------------------------

/// The literal poll: every stochastic source in registration order, then
/// every trace, each visited on every call whether or not it is due.  Its
/// streams are seeded as SourceSet seeds them.
class EveryPoll {
 public:
  EveryPoll(std::uint64_t seed, std::uint32_t salt) : seed_(seed), salt_(salt) {}

  void add_source(const FlowSpec& spec) {
    sources_.emplace_back(spec,
                          seed_ ^ static_cast<std::uint32_t>(salt_ + spec.id));
  }
  void add_trace_source(Trace trace, FlowId flow, NodeId src, NodeId dst,
                        std::int64_t deadline_slots) {
    traces_.emplace_back(std::move(trace), flow, src, dst, deadline_slots);
  }

  template <typename Enqueue>
  void poll(Tick now, Enqueue&& enqueue, Sink& sink) {
    for (TrafficSource& source : sources_) drain(source, now, enqueue, sink);
    for (TraceSource& source : traces_) drain(source, now, enqueue, sink);
  }

 private:
  template <typename Source, typename Enqueue>
  static void drain(Source& source, Tick now, Enqueue& enqueue, Sink& sink) {
    std::vector<Packet> arrivals;
    source.poll(now, arrivals);
    for (Packet& packet : arrivals) {
      if (!enqueue(packet)) sink.record_drop(packet);
    }
  }

  std::uint64_t seed_;
  std::uint32_t salt_;
  std::vector<TrafficSource> sources_;
  std::vector<TraceSource> traces_;
};

/// One packet offered to the queues, and whether they took it.
struct Offer {
  FlowId flow;
  TrafficClass cls;
  std::uint64_t sequence;
  Tick created;
  Tick deadline;
  bool accepted;
  bool operator==(const Offer&) const = default;
};

constexpr std::size_t kMixStations = 6;

/// Bounded per-station queues that log every offer and drain on a seeded
/// schedule, so a full queue refuses some arrivals and not others.
struct OfferLog {
  OfferLog(std::size_t queue_capacity, std::uint64_t seed)
      : capacity(queue_capacity), service(seed, 0x5E7) {}

  auto enqueue() {
    return [this](Packet& packet) {
      const bool accepted = depth[packet.src] < capacity;
      if (accepted) ++depth[packet.src];
      offers.push_back({packet.flow, packet.cls, packet.sequence,
                        packet.created, packet.deadline, accepted});
      return accepted;
    };
  }
  /// Each station sends one queued packet with probability 1/2; the draw is
  /// made whatever the queue holds, so both logs draw alike.
  void serve() {
    for (std::size_t& queued : depth) {
      if (service.bernoulli(0.5) && queued > 0) --queued;
    }
  }

  std::size_t capacity;
  util::RngStream service;
  std::vector<std::size_t> depth = std::vector<std::size_t>(kMixStations, 0);
  std::vector<Offer> offers;
  Sink sink;
};

/// A source to register on both sides: a stochastic spec or a trace.
struct Recipe {
  bool is_trace = false;
  FlowSpec spec;
  Trace trace;
};

/// Draws one source: CBR, Poisson, on-off, a zero-load spec, or a GOP,
/// voice or hand-built trace.  Start slots range from before `now_slot` (a
/// source added mid-run whose start has passed) to past `horizon`.
Recipe random_recipe(util::RngStream& rng, FlowId id, std::int64_t now_slot,
                     std::int64_t horizon) {
  Recipe recipe;
  FlowSpec& spec = recipe.spec;
  spec.id = id;
  spec.src = static_cast<NodeId>(rng.uniform_int(kMixStations));
  spec.dst = static_cast<NodeId>((spec.src + 1) % kMixStations);
  spec.cls = static_cast<TrafficClass>(rng.uniform_int(3));
  spec.deadline_slots =
      spec.cls == TrafficClass::kRealTime ? rng.uniform_int(0, 40) : 0;
  spec.start_slot =
      rng.uniform_int(std::max<std::int64_t>(0, now_slot - 50), horizon + 100);
  const Tick start = slots_to_ticks(spec.start_slot);
  switch (rng.uniform_int(7)) {
    case 0: {
      static constexpr double kPeriods[] = {0.5, 1.0, 2.5, 7.0, 33.0};
      spec.kind = ArrivalKind::kCbr;
      spec.period_slots = kPeriods[rng.uniform_int(5)];
      break;
    }
    case 1:
      spec.kind = ArrivalKind::kPoisson;
      spec.rate_per_slot = rng.uniform(0.01, 1.5);
      break;
    case 2:
      spec.kind = ArrivalKind::kOnOff;
      spec.rate_per_slot = rng.uniform(0.05, 1.0);
      spec.on_mean_slots = rng.uniform(1.0, 80.0);
      spec.off_mean_slots = rng.uniform(1.0, 80.0);
      break;
    case 3:
      // Zero offered load, whichever kind.
      spec.kind = static_cast<ArrivalKind>(rng.uniform_int(3));
      spec.period_slots = 0.0;
      spec.rate_per_slot = 0.0;
      break;
    case 4: {
      GopParams gop;
      gop.frame_period_slots = rng.uniform_int(1, 20);
      gop.gop_length = static_cast<std::uint32_t>(rng.uniform_int(1, 12));
      recipe.is_trace = true;
      recipe.trace = make_gop_trace(
          gop, static_cast<std::uint32_t>(rng.uniform_int(1, 200)), start);
      break;
    }
    case 5: {
      VoiceParams voice;
      voice.packet_period_slots = rng.uniform_int(1, 20);
      voice.talkspurt_mean_slots = rng.uniform(5.0, 100.0);
      voice.silence_mean_slots = rng.uniform(5.0, 100.0);
      recipe.is_trace = true;
      recipe.trace =
          make_voice_trace(voice, slots_to_ticks(horizon + 100), rng.bits());
      break;
    }
    default: {
      // Bursts at arbitrary ticks, several sharing one.
      std::vector<TraceEntry> entries;
      Tick at = start;
      for (std::int64_t n = rng.uniform_int(1, 60); n > 0; --n) {
        at += static_cast<Tick>(rng.uniform_int(3 * kTicksPerSlot));
        entries.push_back({at, static_cast<TrafficClass>(rng.uniform_int(3)),
                           static_cast<std::uint32_t>(rng.uniform_int(1, 4))});
      }
      recipe.is_trace = true;
      recipe.trace = Trace(std::move(entries));
      break;
    }
  }
  return recipe;
}

template <typename Set>
void add_recipe(Set& set, const Recipe& recipe) {
  if (recipe.is_trace) {
    set.add_trace_source(recipe.trace, recipe.spec.id, recipe.spec.src,
                         recipe.spec.dst, recipe.spec.deadline_slots);
  } else {
    set.add_source(recipe.spec);
  }
}

void expect_same_offers(const OfferLog& got, const OfferLog& want) {
  ASSERT_EQ(got.offers.size(), want.offers.size());
  const auto mismatch = std::mismatch(got.offers.begin(), got.offers.end(),
                                      want.offers.begin())
                            .first;
  EXPECT_TRUE(mismatch == got.offers.end())
      << "first difference at offer " << (mismatch - got.offers.begin());
  for (const TrafficClass cls :
       {TrafficClass::kRealTime, TrafficClass::kAssured,
        TrafficClass::kBestEffort}) {
    EXPECT_EQ(got.sink.by_class(cls).dropped, want.sink.by_class(cls).dropped);
  }
  const auto& got_flows = got.sink.per_flow_counts();
  const auto& want_flows = want.sink.per_flow_counts();
  ASSERT_EQ(got_flows.size(), want_flows.size());
  for (auto g = got_flows.begin(), w = want_flows.begin();
       g != got_flows.end(); ++g, ++w) {
    EXPECT_EQ(g->first, w->first);
    EXPECT_EQ(g->second.dropped, w->second.dropped) << "flow " << g->first;
    EXPECT_EQ(g->second.deadline_misses, w->second.deadline_misses);
  }
}

TEST(SourceSetPollEquivalence, RandomMixesMatchEverySourceEveryPoll) {
  constexpr std::int64_t kHorizon = 1500;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::RngStream rng(seed, 0xE9);
    const auto salt = static_cast<std::uint32_t>(rng.bits());
    const auto capacity = static_cast<std::size_t>(rng.uniform_int(1, 4));
    SourceSet set(seed, salt, capacity);
    EveryPoll reference(seed, salt);
    OfferLog fast(capacity, seed);
    OfferLog slow(capacity, seed);
    FlowId next_flow = 1;
    const auto add = [&](std::int64_t now_slot) {
      const Recipe recipe =
          random_recipe(rng, next_flow++, now_slot, kHorizon);
      add_recipe(set, recipe);
      add_recipe(reference, recipe);
    };
    for (int i = 0; i < 8; ++i) add(0);
    std::int64_t slot = 0;
    while (slot < kHorizon) {
      // Mostly one slot at a time, sometimes a skip, sometimes mid-slot.
      slot += rng.bernoulli(0.3) ? rng.uniform_int(1, 7) : 1;
      const Tick now = slots_to_ticks(slot) +
                       (rng.bernoulli(0.1) ? static_cast<Tick>(rng.uniform_int(
                                                 kTicksPerSlot))
                                           : 0);
      if (rng.bernoulli(0.02)) add(slot);
      set.poll(now, fast.enqueue(), fast.sink);
      reference.poll(now, slow.enqueue(), slow.sink);
      fast.serve();
      slow.serve();
    }
    ASSERT_FALSE(slow.offers.empty());
    expect_same_offers(fast, slow);
  }
}

TEST(SourceSetPollEquivalence, StochasticFirstWhenDueTogetherAfterDifferentHistories) {
  // The trace has been due four times before the CBR source even exists;
  // from slot 12 on both are due every sixth slot, and the stochastic
  // packet is still offered first.
  SourceSet set(3, 0xABCD1234u, 64);
  set.add_trace_source(Trace({{slots_to_ticks(2), TrafficClass::kRealTime, 1},
                              {slots_to_ticks(4), TrafficClass::kRealTime, 1},
                              {slots_to_ticks(6), TrafficClass::kRealTime, 1},
                              {slots_to_ticks(8), TrafficClass::kRealTime, 1},
                              {slots_to_ticks(12), TrafficClass::kRealTime, 1},
                              {slots_to_ticks(18), TrafficClass::kRealTime, 2}}),
                       /*flow=*/7, /*src=*/1, /*dst=*/2, /*deadline=*/0);
  Hooks hooks;
  Sink sink;
  for (std::int64_t slot = 0; slot <= 9; ++slot) {
    set.poll(slots_to_ticks(slot), hooks.enqueue(), sink);
  }
  ASSERT_EQ(hooks.seen.size(), 4u);
  FlowSpec cbr = poisson_spec(3, 1);
  cbr.kind = ArrivalKind::kCbr;
  cbr.period_slots = 6.0;
  cbr.start_slot = 12;
  set.add_source(cbr);
  for (std::int64_t slot = 10; slot <= 20; ++slot) {
    set.poll(slots_to_ticks(slot), hooks.enqueue(), sink);
  }
  std::vector<FlowId> flows;
  for (const Packet& packet : hooks.seen) flows.push_back(packet.flow);
  EXPECT_EQ(flows, (std::vector<FlowId>{7, 7, 7, 7, 3, 7, 3, 7, 7}));
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
    outcome.refused = engine.queue_drops(0);
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
