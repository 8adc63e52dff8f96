#include "telemetry/exporters.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "phy/topology.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/registry.hpp"
#include "wrtring/engine.hpp"

namespace wrt::telemetry {
namespace {

/// Cheap structural sanity check: braces and brackets balance and never go
/// negative.  Not a JSON parser, but catches truncated or mis-nested output.
bool balanced(const std::string& text) {
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++braces; break;
      case '}': --braces; break;
      case '[': ++brackets; break;
      case ']': --brackets; break;
      default: break;
    }
    if (braces < 0 || brackets < 0) return false;
  }
  return braces == 0 && brackets == 0 && !in_string;
}

TEST(ExportersTest, SnapshotJsonListsEveryMetric) {
  MetricBlock block;
  block.count(CounterId::kDeliveries, 42);
  block.observe(HistogramId::kSatRotationSlots, 33.0);
  std::ostringstream out;
  write_snapshot_json(out, block.snapshot());
  const std::string json = out.str();
  EXPECT_TRUE(balanced(json)) << json;
  EXPECT_NE(json.find("\"deliveries\""), std::string::npos);
  EXPECT_NE(json.find("42"), std::string::npos);
  EXPECT_NE(json.find("\"sat_rotation_slots\""), std::string::npos);
  // Every catalogue name appears, even at zero.
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const std::string name = counter_name(static_cast<CounterId>(i));
    EXPECT_NE(json.find('"' + name + '"'), std::string::npos) << name;
  }
}

TEST(ExportersTest, SnapshotCsvDerivesHistogramRows) {
  MetricBlock block;
  block.observe(HistogramId::kRtAccessDelaySlots, 4.0);
  block.observe(HistogramId::kRtAccessDelaySlots, 6.0);
  std::ostringstream out;
  write_snapshot_csv(out, block.snapshot());
  const std::string csv = out.str();
  EXPECT_NE(csv.find("rt_access_delay_slots_count,2"), std::string::npos)
      << csv;
  EXPECT_NE(csv.find("rt_access_delay_slots_mean,"), std::string::npos);
  EXPECT_NE(csv.find("rt_access_delay_slots_p50,"), std::string::npos);
  EXPECT_NE(csv.find("rt_access_delay_slots_p99,"), std::string::npos);
  EXPECT_NE(csv.find("slots_stepped,0"), std::string::npos);
}

TEST(ExportersTest, ChromeTraceRendersSlicesInstantsAndMetadata) {
  Journal journal(64);
  // SAT residency at station 2: arrive at slot 10, release at slot 12.
  journal.record(2, JournalKind::kSatArrive, slots_to_ticks(10));
  journal.record(2, JournalKind::kSatRelease, slots_to_ticks(12), /*arg=*/3);
  journal.record(2, JournalKind::kDeliver, slots_to_ticks(11), /*arg=*/7);
  std::ostringstream out;
  write_chrome_trace(out, journal);
  const std::string trace = out.str();
  EXPECT_TRUE(balanced(trace)) << trace;
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);  // SAT slice
  EXPECT_NE(trace.find("\"ph\":\"i\""), std::string::npos);  // instant
  EXPECT_NE(trace.find("\"ph\":\"M\""), std::string::npos);  // thread name
  EXPECT_NE(trace.find("\"tid\":2"), std::string::npos);
}

TEST(ExportersTest, ChromeTraceSurfacesDroppedRecords) {
  Journal journal(2);
  for (int i = 0; i < 8; ++i) {
    journal.record(0, JournalKind::kQueueDepth, slots_to_ticks(i));
  }
  std::ostringstream out;
  write_chrome_trace(out, journal);
  // A wrapped ring must be visible in the viewer, not silently partial.
  EXPECT_NE(out.str().find("dropped"), std::string::npos) << out.str();
}

TEST(ExportersTest, EmptyJournalStillProducesValidTrace) {
  const Journal journal;
  std::ostringstream out;
  write_chrome_trace(out, journal);
  EXPECT_TRUE(balanced(out.str())) << out.str();
  EXPECT_NE(out.str().find("\"traceEvents\""), std::string::npos);
}

TEST(ExportersTest, SnapshotTimelineRecordsTicksInOrder) {
  MetricBlock block;
  SnapshotTimeline timeline;
  timeline.capture(slots_to_ticks(100), block.snapshot());
  block.count(CounterId::kDeliveries, 5);
  timeline.capture(slots_to_ticks(200), block.snapshot());
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_EQ(timeline.tick_at(0), slots_to_ticks(100));
  EXPECT_EQ(timeline.tick_at(1), slots_to_ticks(200));
  EXPECT_EQ(timeline.at(0).counter(CounterId::kDeliveries), 0u);
  EXPECT_EQ(timeline.at(1).counter(CounterId::kDeliveries), 5u);
  std::ostringstream out;
  timeline.write_json(out);
  EXPECT_TRUE(balanced(out.str()));
  EXPECT_NE(out.str().find("\"tick\""), std::string::npos);
}

#if WRT_TELEMETRY_LEVEL

// End-to-end: a short clean run populates the engine's metrics and the
// journal, and the engine's RingMeta makes the journal a self-contained
// analysis input.
TEST(ExportersTest, EngineFeedsRegistryAndJournal) {
  phy::Topology topology(phy::placement::circle(8, 20.0),
                         phy::RadioParams{18.0, 0.0});
  wrtring::Config config;
  config.default_quota = {2, 1};
  wrtring::Engine engine(&topology, config, /*seed=*/3);
  ASSERT_TRUE(engine.init().ok());

  Journal journal(256);
  engine.set_journal(&journal, /*queue_sample_every_slots=*/32);
  engine.run_slots(500);
  journal.set_meta(engine.journal_meta());

  const MetricBlock& metrics = engine.telemetry();
  EXPECT_EQ(metrics.counter(CounterId::kSlotsStepped), 500u);
  EXPECT_GT(metrics.counter(CounterId::kSatHandoffs), 0u);
  const RegistrySnapshot snap = metrics.snapshot();
  EXPECT_GT(snap.histogram(HistogramId::kSatRotationSlots).total, 0u);

  EXPECT_EQ(journal.stations().size(), 8u);
  EXPECT_GT(journal.total_recorded(), 0u);
  EXPECT_EQ(journal.meta().quotas.size(), 8u);
  EXPECT_GT(journal.meta().ring_latency_slots, 0);
  bool saw_arrive = false;
  for (const auto& event : journal.events(0)) {
    if (event.kind == JournalKind::kSatArrive) saw_arrive = true;
  }
  EXPECT_TRUE(saw_arrive);
}

#endif  // WRT_TELEMETRY_LEVEL

}  // namespace
}  // namespace wrt::telemetry
