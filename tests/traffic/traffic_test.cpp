#include "traffic/traffic.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace wrt::traffic {
namespace {

FlowSpec cbr_spec(double period = 10.0) {
  FlowSpec spec;
  spec.id = 1;
  spec.src = 0;
  spec.dst = 1;
  spec.cls = TrafficClass::kRealTime;
  spec.kind = ArrivalKind::kCbr;
  spec.period_slots = period;
  spec.deadline_slots = 50;
  return spec;
}

TEST(TrafficSource, CbrArrivalsAreEvenlySpaced) {
  TrafficSource source(cbr_spec(10.0), 1);
  std::vector<Packet> packets;
  source.poll(slots_to_ticks(100), packets);
  ASSERT_EQ(packets.size(), 11u);  // slots 0, 10, ..., 100
  for (std::size_t i = 1; i < packets.size(); ++i) {
    EXPECT_EQ(packets[i].created - packets[i - 1].created, slots_to_ticks(10));
  }
}

TEST(TrafficSource, CbrStartSlotOffset) {
  FlowSpec spec = cbr_spec(10.0);
  spec.start_slot = 25;
  TrafficSource source(spec, 1);
  std::vector<Packet> packets;
  source.poll(slots_to_ticks(24), packets);
  EXPECT_TRUE(packets.empty());
  source.poll(slots_to_ticks(25), packets);
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_EQ(packets[0].created, slots_to_ticks(25));
}

TEST(TrafficSource, DeadlineStampedRelative) {
  TrafficSource source(cbr_spec(10.0), 1);
  std::vector<Packet> packets;
  source.poll(slots_to_ticks(10), packets);
  ASSERT_GE(packets.size(), 1u);
  EXPECT_EQ(packets[0].deadline, packets[0].created + slots_to_ticks(50));
}

TEST(TrafficSource, BestEffortHasNoDeadline) {
  FlowSpec spec = cbr_spec(10.0);
  spec.cls = TrafficClass::kBestEffort;
  TrafficSource source(spec, 1);
  std::vector<Packet> packets;
  source.poll(slots_to_ticks(10), packets);
  ASSERT_GE(packets.size(), 1u);
  EXPECT_EQ(packets[0].deadline, kNeverTick);
}

TEST(TrafficSource, SequencesAreMonotonic) {
  TrafficSource source(cbr_spec(5.0), 1);
  std::vector<Packet> packets;
  source.poll(slots_to_ticks(200), packets);
  for (std::size_t i = 1; i < packets.size(); ++i) {
    EXPECT_EQ(packets[i].sequence, packets[i - 1].sequence + 1);
  }
}

TEST(TrafficSource, PollIsIncremental) {
  TrafficSource source(cbr_spec(10.0), 1);
  std::vector<Packet> first, second;
  source.poll(slots_to_ticks(50), first);
  source.poll(slots_to_ticks(100), second);
  EXPECT_EQ(first.size() + second.size(), 11u);
  EXPECT_GT(second.front().created, first.back().created);
}

TEST(TrafficSource, PoissonMeanRate) {
  FlowSpec spec = cbr_spec();
  spec.kind = ArrivalKind::kPoisson;
  spec.rate_per_slot = 0.25;
  TrafficSource source(spec, 99);
  std::vector<Packet> packets;
  source.poll(slots_to_ticks(100000), packets);
  EXPECT_NEAR(static_cast<double>(packets.size()) / 100000.0, 0.25, 0.01);
}

TEST(TrafficSource, PoissonDeterministicPerSeed) {
  FlowSpec spec = cbr_spec();
  spec.kind = ArrivalKind::kPoisson;
  spec.rate_per_slot = 0.1;
  TrafficSource a(spec, 5), b(spec, 5);
  std::vector<Packet> pa, pb;
  a.poll(slots_to_ticks(1000), pa);
  b.poll(slots_to_ticks(1000), pb);
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].created, pb[i].created);
  }
}

TEST(TrafficSource, OnOffDutyCycleReducesRate) {
  FlowSpec spec = cbr_spec();
  spec.kind = ArrivalKind::kOnOff;
  spec.rate_per_slot = 0.5;
  spec.on_mean_slots = 100.0;
  spec.off_mean_slots = 300.0;  // 25% duty cycle
  TrafficSource source(spec, 17);
  std::vector<Packet> packets;
  source.poll(slots_to_ticks(200000), packets);
  const double measured = static_cast<double>(packets.size()) / 200000.0;
  EXPECT_NEAR(measured, 0.125, 0.03);
}

TEST(FlowSpec, OfferedLoadFormulas) {
  FlowSpec cbr = cbr_spec(20.0);
  EXPECT_DOUBLE_EQ(cbr.offered_load(), 0.05);
  FlowSpec poisson = cbr_spec();
  poisson.kind = ArrivalKind::kPoisson;
  poisson.rate_per_slot = 0.3;
  EXPECT_DOUBLE_EQ(poisson.offered_load(), 0.3);
  FlowSpec onoff = cbr_spec();
  onoff.kind = ArrivalKind::kOnOff;
  onoff.rate_per_slot = 0.4;
  onoff.on_mean_slots = 100.0;
  onoff.off_mean_slots = 100.0;
  EXPECT_DOUBLE_EQ(onoff.offered_load(), 0.2);
}

TEST(TrafficSource, ZeroOfferedLoadEmitsNothing) {
  // A spec whose offered_load() is not > 0 must agree with it: no packet,
  // and no next arrival (CBR period 0 used to clamp to a 1-tick gap).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<FlowSpec> specs;
  for (const double period : {0.0, -4.0, nan, inf}) {
    FlowSpec cbr = cbr_spec(period);
    specs.push_back(cbr);
  }
  for (const ArrivalKind kind : {ArrivalKind::kPoisson, ArrivalKind::kOnOff}) {
    for (const double rate : {0.0, -0.5, nan}) {
      FlowSpec spec = cbr_spec();
      spec.kind = kind;
      spec.rate_per_slot = rate;
      specs.push_back(spec);
    }
  }
  FlowSpec never_on = cbr_spec();
  never_on.kind = ArrivalKind::kOnOff;
  never_on.rate_per_slot = 0.5;
  never_on.on_mean_slots = 0.0;
  specs.push_back(never_on);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    FlowSpec spec = specs[i];
    spec.start_slot = 5;
    ASSERT_FALSE(spec.offered_load() > 0.0) << i;
    TrafficSource source(spec, 1);
    EXPECT_EQ(source.next_arrival(), kNeverTick) << i;
    std::vector<Packet> packets;
    source.poll(slots_to_ticks(1000), packets);
    EXPECT_TRUE(packets.empty()) << i << ": " << packets.size() << " packets";
  }
}

TEST(SaturatedSource, ProducesRequestedCount) {
  SaturatedSource source(cbr_spec());
  Packet last;
  for (int i = 0; i < 5; ++i) {
    last = source.next(slots_to_ticks(7));
    EXPECT_EQ(last.created, slots_to_ticks(7));
    EXPECT_EQ(last.cls, TrafficClass::kRealTime);
  }
  EXPECT_EQ(last.sequence, 4u);
}

TEST(Sink, RecordsDelayAndClass) {
  Sink sink;
  Packet p;
  p.flow = 3;
  p.cls = TrafficClass::kRealTime;
  p.created = 0;
  p.deadline = slots_to_ticks(10);
  sink.record_delivery(p, slots_to_ticks(4));
  const auto& rt = sink.by_class(TrafficClass::kRealTime);
  EXPECT_EQ(rt.delivered, 1u);
  EXPECT_EQ(rt.deadline_misses, 0u);
  EXPECT_DOUBLE_EQ(rt.delay_slots.mean(), 4.0);
}

TEST(Sink, CountsDeadlineMisses) {
  Sink sink;
  Packet p;
  p.cls = TrafficClass::kRealTime;
  p.created = 0;
  p.deadline = slots_to_ticks(10);
  sink.record_delivery(p, slots_to_ticks(11));
  EXPECT_EQ(sink.by_class(TrafficClass::kRealTime).deadline_misses, 1u);
  EXPECT_DOUBLE_EQ(sink.rt_miss_ratio(), 1.0);
}

TEST(Sink, MissRatioCombinesDropsAndMisses) {
  Sink sink;
  Packet p;
  p.cls = TrafficClass::kRealTime;
  p.created = 0;
  p.deadline = slots_to_ticks(10);
  sink.record_delivery(p, slots_to_ticks(5));   // on time
  sink.record_delivery(p, slots_to_ticks(20));  // late
  sink.record_drop(p);                          // dropped
  EXPECT_NEAR(sink.rt_miss_ratio(), 2.0 / 3.0, 1e-9);
}

TEST(Sink, ThroughputPerSlot) {
  Sink sink;
  Packet p;
  p.cls = TrafficClass::kBestEffort;
  for (int i = 0; i < 50; ++i) sink.record_delivery(p, slots_to_ticks(i));
  EXPECT_DOUBLE_EQ(sink.throughput(0, slots_to_ticks(100)), 0.5);
}

TEST(Sink, PerFlowStats) {
  Sink sink;
  Packet a;
  a.flow = 1;
  a.created = 0;
  Packet b;
  b.flow = 2;
  b.created = 0;
  sink.record_delivery(a, slots_to_ticks(2));
  sink.record_delivery(b, slots_to_ticks(8));
  ASSERT_EQ(sink.per_flow().size(), 2u);
  EXPECT_DOUBLE_EQ(sink.per_flow().at(1).mean(), 2.0);
  EXPECT_DOUBLE_EQ(sink.per_flow().at(2).mean(), 8.0);
}

TEST(Sink, EmptyMissRatioIsZero) {
  const Sink sink;
  EXPECT_DOUBLE_EQ(sink.rt_miss_ratio(), 0.0);
}

TEST(Sink, PerFlowCountsTrackMissesAndDrops) {
  Sink sink;
  Packet a;
  a.flow = 1;
  a.cls = TrafficClass::kRealTime;
  a.created = 0;
  a.deadline = slots_to_ticks(10);
  Packet b;
  b.flow = 2;
  b.cls = TrafficClass::kRealTime;
  b.created = 0;
  b.deadline = slots_to_ticks(10);
  sink.record_delivery(a, slots_to_ticks(5));   // on time: no entry for flow 1
  sink.record_delivery(b, slots_to_ticks(20));  // late
  sink.record_drop(b);
  sink.record_drop(b);
  // Clean flows have no entry at all (counters are touched only on the
  // miss/drop paths).
  EXPECT_FALSE(sink.per_flow_counts().contains(1));
  ASSERT_TRUE(sink.per_flow_counts().contains(2));
  EXPECT_EQ(sink.per_flow_counts().at(2).deadline_misses, 1u);
  EXPECT_EQ(sink.per_flow_counts().at(2).dropped, 2u);
}

TEST(Sink, PerFlowStatsOfUnseenFlowAreAbsent) {
  // A flow that never delivered has no per_flow() entry; callers scoring a
  // call must treat "absent" as an empty (all-zero) distribution.
  const Sink sink;
  EXPECT_TRUE(sink.per_flow().empty());
  EXPECT_TRUE(sink.per_flow_counts().empty());
}

}  // namespace
}  // namespace wrt::traffic
