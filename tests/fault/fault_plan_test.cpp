// FaultPlan tests: text grammar round-trips, parse diagnostics, and the
// survivability guarantees of randomly generated plans.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "fault/fault_plan.hpp"

namespace wrt::fault {
namespace {

FaultPlan sample_plan() {
  FaultPlan plan;
  FaultEvent crash;
  crash.slot = 100;
  crash.kind = FaultKind::kCrash;
  crash.a = 3;
  plan.add(crash);

  FaultEvent degrade;
  degrade.slot = 50;
  degrade.kind = FaultKind::kLinkDegrade;
  degrade.a = 1;
  degrade.b = 2;
  degrade.ge = GeParams::bursty(0.2, 16.0);
  plan.add(degrade);

  FaultEvent partition;
  partition.slot = 200;
  partition.kind = FaultKind::kPartition;
  partition.groups = {{0, 1, 2}, {3, 4, 5}};
  plan.add(partition);

  FaultEvent heal;
  heal.slot = 300;
  heal.kind = FaultKind::kHealPartition;
  plan.add(heal);

  FaultEvent drop;
  drop.slot = 400;
  drop.kind = FaultKind::kDropControl;
  drop.control_msg = kCtrlJoinAck;
  plan.add(drop);

  FaultEvent join;
  join.slot = 500;
  join.kind = FaultKind::kJoin;
  join.a = 9;
  join.quota = {2, 1};
  plan.add(join);

  FaultEvent mark;
  mark.slot = 600;
  mark.kind = FaultKind::kMark;
  mark.label = "storm over";
  plan.add(mark);
  return plan;
}

TEST(FaultPlan, AddKeepsEventsSortedBySlot) {
  const FaultPlan plan = sample_plan();
  ASSERT_EQ(plan.events.size(), 7u);
  for (std::size_t i = 1; i < plan.events.size(); ++i) {
    EXPECT_LE(plan.events[i - 1].slot, plan.events[i].slot);
  }
  EXPECT_EQ(plan.last_slot(), 600);
}

TEST(FaultPlan, TextRoundTrips) {
  const FaultPlan plan = sample_plan();
  const std::string text = plan.to_text();
  const auto reparsed = FaultPlan::parse(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().message;
  EXPECT_EQ(reparsed.value().to_text(), text);
  ASSERT_EQ(reparsed.value().events.size(), plan.events.size());
  EXPECT_EQ(reparsed.value().events[1].kind, FaultKind::kCrash);
  EXPECT_EQ(reparsed.value().events[2].groups,
            (std::vector<std::vector<NodeId>>{{0, 1, 2}, {3, 4, 5}}));
  EXPECT_NEAR(reparsed.value().events[0].ge.average_loss(), 0.2, 1e-6);
}

TEST(FaultPlan, ParseSkipsCommentsAndBlankLines) {
  const auto plan = FaultPlan::parse(
      "# a comment\n"
      "\n"
      "@10 crash 2\n"
      "@20 drop-sat\n");
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan.value().events.size(), 2u);
  EXPECT_EQ(plan.value().events[0].kind, FaultKind::kCrash);
  EXPECT_EQ(plan.value().events[1].kind, FaultKind::kDropSat);
}

TEST(FaultPlan, ParseRejectsMalformedLines) {
  EXPECT_FALSE(FaultPlan::parse("crash 2").ok());
  EXPECT_FALSE(FaultPlan::parse("@x crash 2").ok());
  EXPECT_FALSE(FaultPlan::parse("@-5 crash 2").ok());
  EXPECT_FALSE(FaultPlan::parse("@10 explode 2").ok());
  EXPECT_FALSE(FaultPlan::parse("@10 crash").ok());
  EXPECT_FALSE(FaultPlan::parse("@10 link-degrade 1").ok());
  EXPECT_FALSE(FaultPlan::parse("@10 link-degrade 1 2 avg=2.0").ok());
  EXPECT_FALSE(FaultPlan::parse("@10 partition 0 1 2").ok());
  EXPECT_FALSE(FaultPlan::parse("@10 partition 0 |").ok());
  EXPECT_FALSE(FaultPlan::parse("@10 drop-control maybe").ok());
  EXPECT_FALSE(FaultPlan::parse("@10 link-restore 1").ok());
  // Each would otherwise become a degrade that never loses a frame.
  for (const char* line : {"@100 link-degrade 2 3 avg=nan",
                           "@100 link-degrade 2 3 avg=0.2 dwell=nan",
                           "@100 link-degrade 2 3 avg=0.2 dwell=8 bad=nan",
                           "@100 link-degrade 2 3 avg=0.2 dwell=inf"}) {
    const auto plan = FaultPlan::parse(std::string("# header\n") + line);
    ASSERT_FALSE(plan.ok()) << line;
    EXPECT_NE(plan.error().message.find("line 2"), std::string::npos)
        << plan.error().message;
  }
}

TEST(FaultPlan, CheckEventRefusesWhatTheTopologyLacks) {
  const auto event = [](const std::string& line) {
    return FaultPlan::parse(line).value().events.front();
  };
  EXPECT_TRUE(check_event(event("@1 crash 15"), 16).ok());
  EXPECT_TRUE(check_event(event("@1 drop-sat"), 0).ok());
  EXPECT_TRUE(check_event(event("@1 mark x 99"), 16).ok());
  const util::Status crash = check_event(event("@1 crash 16"), 16);
  ASSERT_FALSE(crash.ok());
  EXPECT_EQ(crash.error().code, util::Error::Code::kInvalidArgument);
  EXPECT_EQ(crash.error().message,
            "station 16 is not in the topology (16 stations)");
  EXPECT_FALSE(check_event(event("@1 join 99"), 16).ok());
  EXPECT_FALSE(check_event(event("@1 link-restore 0 99"), 16).ok());
  EXPECT_FALSE(
      check_event(event("@1 flap 99 0 period=8 duty=50 cycles=1"), 16).ok());
  EXPECT_FALSE(check_event(event("@1 partition 0 1 | 2 99"), 16).ok());

  FaultEvent drop;
  drop.kind = FaultKind::kDropControl;
  drop.control_msg = kCtrlJoinAck;
  EXPECT_TRUE(check_event(drop, 16).ok());
  drop.control_msg = kCtrlJoinAck + 1;
  EXPECT_FALSE(check_event(drop, 16).ok());

  // A degrade built in code skips parse's validation: this chain would
  // trap the link in Bad.
  FaultEvent trap = event("@1 link-degrade 0 1 avg=0.2 dwell=8");
  EXPECT_TRUE(check_event(trap, 16).ok());
  trap.ge.p_good_to_bad = 0.5;
  trap.ge.p_bad_to_good = 0.0;
  const util::Status trapped = check_event(trap, 16);
  ASSERT_FALSE(trapped.ok());
  EXPECT_EQ(trapped.error().code, util::Error::Code::kInvalidArgument);
}

TEST(FaultPlan, FlapAndSwitchTextRoundTrips) {
  const auto plan = FaultPlan::parse(
      "@10 flap 1 2 period=32 duty=40 cycles=3\n"
      "@50 force-switch 4\n"
      "@900 clear-switch 4\n"
      "@950 link-restore 1 2\n");
  ASSERT_TRUE(plan.ok()) << plan.error().message;
  ASSERT_EQ(plan.value().events.size(), 4u);
  const FaultEvent& flap = plan.value().events[0];
  EXPECT_EQ(flap.kind, FaultKind::kFlap);
  EXPECT_EQ(flap.a, 1u);
  EXPECT_EQ(flap.b, 2u);
  EXPECT_EQ(flap.period_slots, 32);
  EXPECT_EQ(flap.duty_pct, 40u);
  EXPECT_EQ(flap.cycles, 3u);
  EXPECT_EQ(plan.value().events[1].kind, FaultKind::kForceSwitch);
  EXPECT_EQ(plan.value().events[1].a, 4u);
  EXPECT_EQ(plan.value().events[2].kind, FaultKind::kClearSwitch);
  // The second half of a flap cycle: undoes the break, keeps a degrade.
  const FaultEvent& restore = plan.value().events[3];
  EXPECT_EQ(restore.kind, FaultKind::kLinkRestore);
  EXPECT_EQ(restore.a, 1u);
  EXPECT_EQ(restore.b, 2u);

  const std::string text = plan.value().to_text();
  const auto reparsed = FaultPlan::parse(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().message;
  EXPECT_EQ(reparsed.value().to_text(), text);
}

TEST(FaultPlan, ParseRejectsMalformedFlapAndSwitch) {
  EXPECT_FALSE(FaultPlan::parse("@10 flap 1").ok());
  // period < 2, duty outside [1, 99], cycles < 1.
  EXPECT_FALSE(
      FaultPlan::parse("@10 flap 1 2 period=1 duty=40 cycles=3").ok());
  EXPECT_FALSE(
      FaultPlan::parse("@10 flap 1 2 period=32 duty=0 cycles=3").ok());
  EXPECT_FALSE(
      FaultPlan::parse("@10 flap 1 2 period=32 duty=100 cycles=3").ok());
  EXPECT_FALSE(
      FaultPlan::parse("@10 flap 1 2 period=32 duty=40 cycles=0").ok());
  EXPECT_FALSE(FaultPlan::parse("@10 force-switch").ok());
  EXPECT_FALSE(FaultPlan::parse("@10 clear-switch").ok());
}

TEST(FaultPlan, SaveLoadRoundTrips) {
  const FaultPlan plan = sample_plan();
  const std::string path =
      ::testing::TempDir() + "/fault_plan_roundtrip.fplan";
  ASSERT_TRUE(plan.save(path).ok());
  const auto loaded = FaultPlan::load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_EQ(loaded.value().to_text(), plan.to_text());
  std::remove(path.c_str());
  EXPECT_FALSE(FaultPlan::load(path).ok());
}

TEST(FaultPlanRandom, DeterministicPerSeed) {
  FaultPlan::RandomOptions options;
  options.parked = {12, 13};
  EXPECT_EQ(FaultPlan::random(7, options).to_text(),
            FaultPlan::random(7, options).to_text());
  EXPECT_NE(FaultPlan::random(7, options).to_text(),
            FaultPlan::random(8, options).to_text());
}

TEST(FaultPlanRandom, EveryDisturbanceHealsBeforeTheTail) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    FaultPlan::RandomOptions options;
    options.events = 10;
    options.parked = {12, 13, 14};
    const FaultPlan plan = FaultPlan::random(seed, options);
    // The final tenth of the horizon is quiet so recovery can be asserted.
    EXPECT_LE(plan.last_slot(), options.horizon_slots * 9 / 10)
        << "seed " << seed;

    int stalled = 0;
    int broken_or_degraded = 0;
    int partitions = 0;
    std::size_t dead = 0;
    for (const FaultEvent& event : plan.events) {
      switch (event.kind) {
        case FaultKind::kStall: ++stalled; break;
        case FaultKind::kResume: --stalled; break;
        case FaultKind::kLinkDegrade:
        case FaultKind::kLinkBreak: ++broken_or_degraded; break;
        case FaultKind::kLinkHeal: --broken_or_degraded; break;
        case FaultKind::kPartition: ++partitions; break;
        case FaultKind::kHealPartition: --partitions; break;
        case FaultKind::kCrash:
        case FaultKind::kLeave: ++dead; break;
        default: break;
      }
    }
    EXPECT_EQ(stalled, 0) << "seed " << seed << ": unresumed stall";
    EXPECT_EQ(broken_or_degraded, 0) << "seed " << seed << ": unhealed link";
    EXPECT_EQ(partitions, 0) << "seed " << seed << ": unhealed partition";
    EXPECT_LE(dead, options.n_stations - options.min_alive)
        << "seed " << seed << ": plan kills below min_alive";
  }
}

TEST(FaultPlanRandom, FlapEventsLayerWithoutPerturbingPrimaries) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    FaultPlan::RandomOptions base;
    base.events = 6;
    FaultPlan::RandomOptions flappy = base;
    flappy.flap_events = 4;
    const FaultPlan plain = FaultPlan::random(seed, base);
    const FaultPlan with_flaps = FaultPlan::random(seed, flappy);

    // The flaps are generated in a second pass: stripping them must
    // recover the primary stream byte-for-byte (existing seeds keep their
    // plans when flap_events stays 0).
    FaultPlan stripped;
    std::size_t flaps = 0;
    for (const FaultEvent& event : with_flaps.events) {
      if (event.kind == FaultKind::kFlap) {
        ++flaps;
        continue;
      }
      stripped.add(event);
    }
    EXPECT_EQ(flaps, 4u) << "seed " << seed;
    EXPECT_EQ(stripped.to_text(), plain.to_text()) << "seed " << seed;

    for (const FaultEvent& event : with_flaps.events) {
      if (event.kind != FaultKind::kFlap) continue;
      // Transient-blip envelope: short periods, down window at most half a
      // period, adjacent ring link, finished before the quiet tail.
      EXPECT_GE(event.period_slots, 16) << "seed " << seed;
      EXPECT_LE(event.period_slots, 48) << "seed " << seed;
      EXPECT_GE(event.duty_pct, 25u) << "seed " << seed;
      EXPECT_LE(event.duty_pct, 50u) << "seed " << seed;
      EXPECT_GE(event.cycles, 1u) << "seed " << seed;
      EXPECT_EQ(event.b,
                static_cast<NodeId>((event.a + 1) % base.n_stations))
          << "seed " << seed;
      EXPECT_LE(event.slot + static_cast<std::int64_t>(event.cycles) *
                                 event.period_slots,
                base.horizon_slots * 9 / 10)
          << "seed " << seed;
    }
  }
}

TEST(FaultPlanRandom, ParkedJoinersJoinAtMostOnce) {
  FaultPlan::RandomOptions options;
  options.events = 20;
  options.parked = {12, 13};
  const FaultPlan plan = FaultPlan::random(3, options);
  int joins_12 = 0;
  int joins_13 = 0;
  for (const FaultEvent& event : plan.events) {
    if (event.kind != FaultKind::kJoin) continue;
    if (event.a == 12) ++joins_12;
    if (event.a == 13) ++joins_13;
  }
  EXPECT_LE(joins_12, 1);
  EXPECT_LE(joins_13, 1);
}

}  // namespace
}  // namespace wrt::fault
