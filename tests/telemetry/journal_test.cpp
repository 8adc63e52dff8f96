#include "telemetry/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace wrt::telemetry {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

template <typename T>
void put(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

using RawRings = std::vector<std::pair<NodeId, std::vector<JournalEvent>>>;

/// Writes a WRTJRNL1 v1 file by hand — header, empty meta, then `rings` as
/// (station, records) — so a test can say exactly which field is corrupt.
/// `claimed_count`, when set, replaces each ring's record count.
void write_raw(const std::string& path, const RawRings& rings,
               std::uint64_t capacity = 4, std::uint64_t claimed_count = 0) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write("WRTJRNL1", 8);
  put(out, std::uint32_t{1});     // version
  put(out, capacity);             // capacity per station
  put(out, std::uint64_t{0});     // total recorded
  put(out, std::int64_t{0});      // ring latency S
  put(out, std::int64_t{0});      // T_rap
  put(out, std::uint32_t{0});     // quota count
  put(out, static_cast<std::uint32_t>(rings.size()));
  for (const auto& [station, records] : rings) {
    put(out, station);
    put(out, std::uint64_t{0});   // dropped
    put(out, claimed_count != 0 ? claimed_count
                                : static_cast<std::uint64_t>(records.size()));
    for (const JournalEvent& record : records) put(out, record);
  }
}

/// Loads `rings` back through write_raw; the error message when refused.
std::string load_error(const std::string& name, const RawRings& rings,
                       std::uint64_t capacity = 4,
                       std::uint64_t claimed_count = 0) {
  const std::string path = temp_path(name);
  write_raw(path, rings, capacity, claimed_count);
  const auto loaded = Journal::load(path);
  std::remove(path.c_str());
  return loaded.ok() ? std::string() : loaded.error().message;
}

TEST(Journal, StartsEmpty) {
  const Journal journal;
  EXPECT_TRUE(journal.stations().empty());
  EXPECT_EQ(journal.total_recorded(), 0u);
  EXPECT_EQ(journal.total_dropped(), 0u);
  EXPECT_EQ(journal.dropped(3), 0u);       // untouched station
  EXPECT_TRUE(journal.events(3).empty());
}

TEST(Journal, RecordsPerStationOldestFirst) {
  Journal journal;
  journal.record(2, JournalKind::kSatArrive, 100);
  journal.record(2, JournalKind::kSatRelease, 116, /*arg=*/3);
  journal.record(5, JournalKind::kTransmit, 120, /*arg=*/0, /*value=*/32);
  EXPECT_EQ(journal.stations(), (std::vector<NodeId>{2, 5}));
  const auto events = journal.events(2);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, JournalKind::kSatArrive);
  EXPECT_EQ(events[0].tick, 100);
  EXPECT_EQ(events[1].kind, JournalKind::kSatRelease);
  EXPECT_EQ(events[1].arg, 3u);
  ASSERT_EQ(journal.events(5).size(), 1u);
  EXPECT_EQ(journal.events(5)[0].value, 32u);
  EXPECT_EQ(journal.total_recorded(), 3u);
}

TEST(Journal, RingWrapKeepsNewestAndCountsDropped) {
  Journal journal(4);
  for (int i = 0; i < 10; ++i) {
    journal.record(1, JournalKind::kQueueDepth, i,
                   /*arg=*/0, /*value=*/static_cast<std::uint64_t>(i));
  }
  const auto events = journal.events(1);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().tick, 6);  // oldest surviving
  EXPECT_EQ(events.back().tick, 9);
  EXPECT_EQ(journal.dropped(1), 6u);
  EXPECT_EQ(journal.total_recorded(), 10u);
  EXPECT_EQ(journal.total_dropped(), 6u);
}

TEST(Journal, OverloadedStationCannotEvictAnother) {
  Journal journal(2);
  journal.record(0, JournalKind::kSatArrive, 1);
  for (int i = 0; i < 50; ++i) {
    journal.record(7, JournalKind::kQueueDepth, i);
  }
  EXPECT_EQ(journal.events(0).size(), 1u);  // untouched by station 7's churn
  EXPECT_EQ(journal.dropped(0), 0u);
  EXPECT_EQ(journal.dropped(7), 48u);
}

TEST(Journal, ClearDropsEverythingButKeepsCapacity) {
  Journal journal(8);
  journal.record(1, JournalKind::kJoin, 10);
  journal.clear();
  EXPECT_TRUE(journal.stations().empty());
  EXPECT_EQ(journal.total_recorded(), 0u);
  EXPECT_EQ(journal.capacity_per_station(), 8u);
}

TEST(Journal, SaveLoadRoundTripsEventsMetaAndDrops) {
  Journal journal(4);
  RingMeta meta;
  meta.ring_latency_slots = 32;
  meta.t_rap_slots = 20;
  meta.quotas = {{0, Quota{2, 1}}, {1, Quota{3, 2}}};
  journal.set_meta(meta);
  for (int i = 0; i < 6; ++i) {  // wraps: 2 dropped at station 0
    journal.record(0, JournalKind::kSatArrive, 10 * i, /*arg=*/9,
                   /*value=*/static_cast<std::uint64_t>(i));
  }
  journal.record(3, JournalKind::kCutOut, 999, /*arg=*/1);

  const std::string path = temp_path("journal_roundtrip.jrnl");
  ASSERT_TRUE(journal.save(path).ok());
  auto loaded = Journal::load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  const Journal& copy = loaded.value();

  EXPECT_EQ(copy.capacity_per_station(), journal.capacity_per_station());
  EXPECT_EQ(copy.total_recorded(), journal.total_recorded());
  EXPECT_EQ(copy.dropped(0), 2u);
  EXPECT_EQ(copy.stations(), journal.stations());
  const auto original = journal.events(0);
  const auto restored = copy.events(0);
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < restored.size(); ++i) {
    EXPECT_EQ(restored[i].tick, original[i].tick);
    EXPECT_EQ(restored[i].kind, original[i].kind);
    EXPECT_EQ(restored[i].arg, original[i].arg);
    EXPECT_EQ(restored[i].value, original[i].value);
  }
  EXPECT_EQ(copy.meta().ring_latency_slots, 32);
  EXPECT_EQ(copy.meta().t_rap_slots, 20);
  ASSERT_EQ(copy.meta().quotas.size(), 2u);
  EXPECT_EQ(copy.meta().quotas[1].first, 1u);
  EXPECT_EQ(copy.meta().quotas[1].second.l, 3u);
  EXPECT_EQ(copy.meta().quotas[1].second.k, 2u);
  std::remove(path.c_str());
}

TEST(Journal, EmptyJournalRoundTrips) {
  Journal journal(16);
  const std::string path = temp_path("journal_empty.jrnl");
  ASSERT_TRUE(journal.save(path).ok());
  auto loaded = Journal::load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_TRUE(loaded.value().stations().empty());
  EXPECT_EQ(loaded.value().total_recorded(), 0u);
  EXPECT_EQ(loaded.value().capacity_per_station(), 16u);
  std::remove(path.c_str());
}

TEST(Journal, LoadRejectsMissingFile) {
  const auto loaded = Journal::load(temp_path("does_not_exist.jrnl"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_FALSE(loaded.error().message.empty());
}

TEST(Journal, LoadRejectsForeignFile) {
  const std::string path = temp_path("journal_garbage.jrnl");
  {
    std::ofstream out(path, std::ios::binary);
    out << "definitely not a journal";
  }
  const auto loaded = Journal::load(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(Journal, KindNamesAreClosed) {
  const int last = static_cast<int>(kLastJournalKind);
  for (int k = 0; k <= last; ++k) {
    EXPECT_STRNE(to_string(static_cast<JournalKind>(k)), "unknown") << k;
  }
  EXPECT_STREQ(to_string(static_cast<JournalKind>(last + 1)), "unknown");
}

TEST(Journal, TimelineOrdersByTickThenStationThenRecord) {
  Journal journal(4);
  journal.record(2, JournalKind::kStall, 5);  // overwritten below
  journal.record(5, JournalKind::kJoin, 20, /*arg=*/4);
  journal.record(2, JournalKind::kSatArrive, 20);
  journal.record(2, JournalKind::kSatRelease, 20, /*arg=*/3);
  journal.record(7, JournalKind::kCutOut, 10, /*arg=*/6);
  journal.record(2, JournalKind::kLeave, 30);
  journal.record(2, JournalKind::kResume, 40);
  const auto timeline = journal.timeline();
  const std::vector<std::pair<NodeId, JournalKind>> expected = {
      {7, JournalKind::kCutOut},     {2, JournalKind::kSatArrive},
      {2, JournalKind::kSatRelease}, {5, JournalKind::kJoin},
      {2, JournalKind::kLeave},      {2, JournalKind::kResume}};
  ASSERT_EQ(timeline.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(timeline[i].first, expected[i].first) << i;
    EXPECT_EQ(timeline[i].second.kind, expected[i].second) << i;
  }
  EXPECT_EQ(timeline[0].second.arg, 6u);
  EXPECT_EQ(timeline[0].second.tick, 10);
  EXPECT_EQ(journal.total_dropped(), 1u);
  EXPECT_TRUE(Journal(4).timeline().empty());
}

TEST(Journal, LoadAcceptsAHandWrittenFile) {
  // The hand-written layout is the real one: the refusals below are about
  // the corrupted field alone.
  const JournalEvent join{7, 0, JournalKind::kJoin, 0, 1};
  EXPECT_EQ(load_error("journal_raw_ok.jrnl", {{3, {join}}, {5, {}}}), "");
}

TEST(Journal, LoadHoldsWhatTheFileHasNotWhatItClaims) {
  // A ring is sized by the records read, never by the header's capacity or
  // the ring's claimed count, so neither can make load() allocate more
  // than the file holds.
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 60;
  const JournalEvent join{7, 0, JournalKind::kJoin, 0, 1};
  const std::string path = temp_path("journal_huge_capacity.jrnl");
  write_raw(path, {{3, {join}}}, kHuge);
  const auto loaded = Journal::load(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_EQ(loaded.value().capacity_per_station(), kHuge);
  ASSERT_EQ(loaded.value().events(3).size(), 1u);
  EXPECT_EQ(loaded.value().events(3)[0].tick, 7);
  EXPECT_EQ(load_error("journal_claims_more.jrnl", {{3, {join}}}, kHuge,
                       /*claimed_count=*/std::uint64_t{1} << 40),
            "journal load: truncated ring");
}

TEST(Journal, RecordingIntoALoadedJournalContinuesItsRings) {
  Journal journal(4);
  journal.record(3, JournalKind::kJoin, 10);
  journal.record(3, JournalKind::kStall, 20);
  const std::string path = temp_path("journal_continue.jrnl");
  ASSERT_TRUE(journal.save(path).ok());
  auto loaded = Journal::load(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  Journal& copy = loaded.value();
  for (const Tick tick : {30, 40, 50}) {
    copy.record(3, JournalKind::kResume, tick);
  }
  const auto events = copy.events(3);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().tick, 20);  // the oldest, kJoin, was overwritten
  EXPECT_EQ(events.back().tick, 50);
  EXPECT_EQ(copy.dropped(3), 1u);
}

TEST(Journal, LoadRefusesAStationBeyondTheBound) {
  // A dense ring table sized by this id would need billions of entries.
  EXPECT_EQ(load_error("journal_huge_station.jrnl", {{0xFFFFFFF0u, {}}}),
            "journal load: corrupt ring");
}

TEST(Journal, LoadRefusesTheInvalidStation) {
  EXPECT_EQ(load_error("journal_invalid_station.jrnl", {{kInvalidNode, {}}}),
            "journal load: corrupt ring");
}

TEST(Journal, LoadRefusesAStationListedTwice) {
  const JournalEvent first{1, 0, JournalKind::kJoin, 0, 0};
  const JournalEvent second{2, 0, JournalKind::kLeave, 0, 0};
  EXPECT_EQ(load_error("journal_twice.jrnl", {{3, {first}}, {3, {second}}}),
            "journal load: corrupt ring");
}

TEST(Journal, LoadRefusesAnUnknownKind) {
  const JournalEvent foreign{1, 0, static_cast<JournalKind>(999), 0, 0};
  EXPECT_EQ(load_error("journal_unknown_kind.jrnl", {{3, {foreign}}}),
            "journal load: unknown event kind");
}

}  // namespace
}  // namespace wrt::telemetry
