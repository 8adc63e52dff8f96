// Digest-equivalence property suite for the SoA slot kernel.
//
// Each (ring size, scenario mode) cell runs a fixed-seed simulation and
// reduces the full EngineStats to one canonical digest string.  The
// expected strings below were recorded against the pre-SoA object-oriented
// engine (PR 5 seed); the SoA kernel must reproduce them bit-for-bit —
// including the floating-point means, whose accumulation order is part of
// the contract — across clean, membership-churn, and bursty-loss runs.
//
// The kStall cells were recorded later, against the engine that still ran
// the literal per-position loops whenever a member was silent or a hop was
// unreachable: they pin the silent-station and unreachable-hop cases under
// saturated traffic.  The OccupancyDigest cells below pin a lossy ring at
// partial occupancy.
//
// Regenerating after a *deliberate* protocol change:
//   WRT_DIGEST_CAPTURE=1 ./test_wrtring --gtest_filter='*Soa*:*Occupancy*'
// and paste the printed tables back into kExpected and kOccupancyExpected.
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "fault/gilbert_elliott.hpp"
#include "phy/topology.hpp"
#include "tests/mixed_sources.hpp"
#include "wrtring/engine.hpp"

namespace wrt::wrtring {
namespace {

enum class Mode { kClean, kChurn, kFault, kMixed, kStall };

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kClean: return "clean";
    case Mode::kChurn: return "churn";
    case Mode::kFault: return "fault";
    case Mode::kMixed: return "mixed";
    case Mode::kStall: return "stall";
  }
  return "?";
}

void saturate(Engine& engine, std::size_t n, std::size_t members) {
  for (NodeId node = 0; node < members; ++node) {
    traffic::FlowSpec spec;
    spec.id = node;
    spec.src = node;
    spec.dst = static_cast<NodeId>((node + n / 2) % members);
    spec.cls = node % 3 == 0 ? TrafficClass::kBestEffort
                             : TrafficClass::kRealTime;
    engine.add_saturated_source(spec, 4);
  }
}

std::string field(const char* key, std::uint64_t value) {
  return std::string(key) + "=" + std::to_string(value) + ";";
}

std::string field_milli(const char* key, double value) {
  return std::string(key) + "=" +
         std::to_string(static_cast<long long>(value * 1000.0)) + ";";
}

/// Reduces the run's EngineStats to the canonical digest line.  Teardown
/// losses are printed as one summed field so the digest stays comparable
/// across the rebuild/churn counter split.
std::string engine_digest(Engine& engine) {
  const EngineStats& stats = engine.stats();
  std::string digest;
  digest += field("ring", engine.virtual_ring().size());
  digest += field("rounds", stats.sat_rounds);
  digest += field("hops", stats.sat_hops);
  digest += field("tx", stats.data_transmissions);
  digest += field("transit", stats.transit_forwards);
  digest += field("delivered", stats.sink.total_delivered());
  digest += field("lost_link", stats.frames_lost_link);
  digest += field("lost_teardown",
                  stats.frames_lost_rebuild + stats.frames_lost_churn);
  digest += field("stale", stats.frames_dropped_stale);
  digest += field("rt_del",
                  stats.sink.by_class(TrafficClass::kRealTime).delivered);
  digest += field("as_del",
                  stats.sink.by_class(TrafficClass::kAssured).delivered);
  digest += field("be_del",
                  stats.sink.by_class(TrafficClass::kBestEffort).delivered);
  digest += field("joins", stats.joins_completed);
  digest += field("leaves", stats.leaves_completed);
  digest += field("recoveries", stats.sat_recoveries);
  digest += field("losses_detected", stats.sat_losses_detected);
  digest += field("rebuilds", stats.ring_rebuilds);
  digest += field("raps", stats.raps_started);
  digest += field("ctrl_lost", stats.control_messages_lost);
  std::uint64_t queue_drops = 0;
  for (const NodeId node : engine.virtual_ring().order()) {
    queue_drops += engine.queue_drops(node);
  }
  digest += field("qdrops", queue_drops);
  digest += field_milli("delay", stats.access_delay_slots.mean());
  digest += field_milli("rt_delay", stats.rt_access_delay_slots.mean());
  digest += field_milli("rotation", stats.sat_rotation_slots.mean());
  digest += field_milli("hold", stats.sat_hold_slots.mean());
  digest += field_milli("util", engine.ring_utilization());
  digest += field("invariants_ok", engine.check_invariants().ok() ? 1 : 0);
  return digest;
}

/// Every source kind at once (tests/mixed_sources.hpp).  The two saturated
/// bounds on station 2 keep the saturated top-up on its full pass; the kill
/// moves every later station's ring position under its sources.
std::string mixed_digest(std::size_t n) {
  phy::Topology topology = phy::ring_room(n);
  Config config;
  config.sat_timeout_slots = static_cast<std::int64_t>(4 * n + 64);
  config.queue_capacity = 8;
  Engine engine(&topology, config, /*seed=*/7);
  test_fixtures::attach_mixed_sources(engine, n, /*horizon_slots=*/2048);
  if (!engine.init().ok()) return "init-failed";
  engine.run_slots(1024);
  engine.kill_station(engine.virtual_ring().station_at(9));
  engine.run_slots(1024);
  return engine_digest(engine) +
         test_fixtures::flow_digest(engine.stats().sink);
}

std::string scenario_digest(std::size_t n, Mode mode) {
  if (mode == Mode::kMixed) return mixed_digest(n);
  phy::Topology topology = phy::ring_room(n);
  Config config;
  // Explicit SAT timeout: keeps the cut-out recovery length O(n) rather
  // than letting the Theorem-1 default grow the run, and must stay above
  // the saturated rotation time (~2n slots) to avoid spurious detections.
  config.sat_timeout_slots = static_cast<std::int64_t>(4 * n + 64);
  std::size_t members = n;
  if (mode == Mode::kChurn) {
    config.rap_policy = RapPolicy::kRotating;
    config.s_round_min = 4;
    if (n <= 64) {
      // Park the last node outside the ring so the run exercises a real
      // RAP join.  At larger n a rotating RAP reaches the joiner's
      // neighbourhood only after O(n^2) slots, so big-ring churn sticks
      // to leave + cut-out.
      members = n - 1;
      config.members.resize(members);
      for (std::size_t i = 0; i < members; ++i) {
        config.members[i] = static_cast<NodeId>(i);
      }
    }
  }
  if (mode == Mode::kFault) {
    // Bursty data loss (FaultPlan's link-degrade parameterisation) plus a
    // one-shot SAT drop: exercises loss accounting and a full recovery.
    config.channel.data = fault::GeParams::bursty(0.05, 8.0);
  }
  if (mode == Mode::kStall) {
    // A station cut out by the long stall re-enters through the RAP.
    config.rap_policy = RapPolicy::kRotating;
    config.auto_rejoin = true;
  }
  Engine engine(&topology, config, /*seed=*/7);
  saturate(engine, n, members);
  if (!engine.init().ok()) return "init-failed";

  engine.run_slots(512);
  if (mode == Mode::kChurn) {
    if (members < n) {
      engine.request_join(static_cast<NodeId>(n - 1), Quota{1, 1});
      engine.run_slots(6000);
    }
    if (!engine.request_leave(engine.virtual_ring().station_at(5)).ok()) {
      return "leave-failed";
    }
    engine.run_slots(512);
    engine.kill_station(engine.virtual_ring().station_at(11));
    engine.run_slots(2 * config.sat_timeout_slots + 512);
  } else if (mode == Mode::kFault) {
    engine.drop_sat_once();
    engine.run_slots(2 * config.sat_timeout_slots + 512);
  } else if (mode == Mode::kStall) {
    // 1. A short wedge, resumed well inside the SAT timeout: frames
    //    arriving at the silent station are lost.
    const NodeId brief = engine.virtual_ring().station_at(3);
    engine.stall_station(brief);
    engine.run_slots(24);
    engine.resume_station(brief);
    engine.run_slots(256);
    // 2. One ring hop hard-fails for a few slots: frames forwarded onto
    //    it are lost.
    const NodeId from = engine.virtual_ring().station_at(7);
    const NodeId to = engine.virtual_ring().station_at(8);
    topology.fail_link(from, to);
    engine.run_slots(6);
    topology.restore_link(from, to);
    engine.run_slots(256);
    // 3. A wedge that outlasts the SAT timeout: the ring cuts the station
    //    out, and on resume it asks to rejoin.
    const NodeId long_stall = engine.virtual_ring().station_at(13);
    engine.stall_station(long_stall);
    engine.run_slots(2 * config.sat_timeout_slots + 512);
    engine.resume_station(long_stall);
    engine.run_slots(1024);
  } else {
    engine.run_slots(1024);
  }
  return engine_digest(engine);
}

struct Cell {
  std::size_t n;
  Mode mode;
  const char* expected;
};

// Pre-SoA oracle, recorded at the PR 5 seed (see header comment).
constexpr Cell kExpected[] = {
    {32, Mode::kClean,
     "ring=32;rounds=48;hops=1536;tx=1551;transit=23265;delivered=1535;lost_link=0;lost_teardown=0;stale=0;rt_del=1007;as_del=0;be_del=528;joins=0;leaves=0;recoveries=0;losses_detected=0;rebuilds=0;raps=0;ctrl_lost=0;qdrops=0;delay=119902;rt_delay=119971;rotation=32000;hold=0;util=504;invariants_ok=1;"},
    {32, Mode::kChurn,
     "ring=30;rounds=209;hops=6580;tx=6443;transit=98697;delivered=6323;lost_link=16;lost_teardown=39;stale=50;rt_del=4096;as_del=0;be_del=2227;joins=1;leaves=1;recoveries=1;losses_detected=1;rebuilds=0;raps=197;ctrl_lost=0;qdrops=0;delay=148634;rt_delay=148668;rotation=37918;hold=0;util=421;invariants_ok=1;"},
    {32, Mode::kFault,
     "ring=31;rounds=40;hops=1246;tx=1269;transit=14029;delivered=645;lost_link=597;lost_teardown=9;stale=7;rt_del=410;as_del=0;be_del=235;joins=0;leaves=0;recoveries=1;losses_detected=1;rebuilds=0;raps=0;ctrl_lost=0;qdrops=0;delay=131810;rt_delay=131678;rotation=35558;hold=0;util=332;invariants_ok=1;"},
    {256, Mode::kClean,
     "ring=256;rounds=6;hops=1536;tx=1663;transit=211201;delivered=1535;lost_link=0;lost_teardown=0;stale=0;rt_del=1020;as_del=0;be_del=515;joins=0;leaves=0;recoveries=0;losses_detected=0;rebuilds=0;raps=0;ctrl_lost=0;qdrops=0;delay=590740;rt_delay=590456;rotation=256000;hold=0;util=541;invariants_ok=1;"},
    {256, Mode::kChurn,
     "ring=254;rounds=12;hops=2834;tx=3027;transit=344779;delivered=2506;lost_link=128;lost_teardown=255;stale=11;rt_del=1667;as_del=0;be_del=839;joins=0;leaves=1;recoveries=1;losses_detected=1;rebuilds=0;raps=8;ctrl_lost=0;qdrops=0;delay=1069953;rt_delay=1070302;rotation=340454;hold=0;util=367;invariants_ok=1;"},
    {256, Mode::kFault,
     "ring=255;rounds=10;hops=2366;tx=2612;transit=51948;delivered=5;lost_link=2573;lost_teardown=22;stale=0;rt_del=3;as_del=0;be_del=2;joins=0;leaves=0;recoveries=1;losses_detected=1;rebuilds=0;raps=0;ctrl_lost=0;qdrops=0;delay=1051256;rt_delay=1052140;rotation=356034;hold=0;util=63;invariants_ok=1;"},
    {1024, Mode::kClean,
     "ring=1024;rounds=2;hops=1536;tx=2047;transit=1046017;delivered=1535;lost_link=0;lost_teardown=0;stale=0;rt_del=1022;as_del=0;be_del=513;joins=0;leaves=0;recoveries=0;losses_detected=0;rebuilds=0;raps=0;ctrl_lost=0;qdrops=0;delay=383937;rt_delay=384375;rotation=1024000;hold=0;util=666;invariants_ok=1;"},
    {1024, Mode::kChurn,
     "ring=1023;rounds=5;hops=3639;tx=4406;transit=1990080;delivered=3381;lost_link=512;lost_teardown=0;stale=1;rt_del=2253;as_del=0;be_del=1128;joins=0;leaves=0;recoveries=0;losses_detected=0;rebuilds=1;raps=1;ctrl_lost=0;qdrops=0;delay=4797121;rt_delay=4797091;rotation=1025104;hold=0;util=197;invariants_ok=1;"},
    {1024, Mode::kFault,
     "ring=1023;rounds=6;hops=5695;tx=6700;transit=141864;delivered=0;lost_link=6649;lost_teardown=34;stale=0;rt_del=0;as_del=0;be_del=0;joins=0;leaves=0;recoveries=1;losses_detected=1;rebuilds=0;raps=0;ctrl_lost=0;qdrops=0;delay=4454256;rt_delay=4453470;rotation=1422976;hold=0;util=14;invariants_ok=1;"},
    {4096, Mode::kClean,
     "ring=4096;rounds=1;hops=1536;tx=4096;transit=6287360;delivered=0;lost_link=0;lost_teardown=0;stale=0;rt_del=0;as_del=0;be_del=0;joins=0;leaves=0;recoveries=0;losses_detected=0;rebuilds=0;raps=0;ctrl_lost=0;qdrops=0;delay=0;rt_delay=0;rotation=0;hold=0;util=1000;invariants_ok=1;"},
    {4096, Mode::kChurn,
     "ring=4095;rounds=4;hops=9789;tx=12860;transit=21585903;delivered=7729;lost_link=3083;lost_teardown=0;stale=0;rt_del=5153;as_del=0;be_del=2576;joins=0;leaves=0;recoveries=0;losses_detected=0;rebuilds=1;raps=0;ctrl_lost=0;qdrops=0;delay=12572769;rt_delay=12569653;rotation=4095006;hold=0;util=153;invariants_ok=1;"},
    {4096, Mode::kFault,
     "ring=4095;rounds=5;hops=17983;tx=22056;transit=471249;delivered=0;lost_link=22009;lost_teardown=22;stale=0;rt_del=0;as_del=0;be_del=0;joins=0;leaves=0;recoveries=1;losses_detected=1;rebuilds=0;raps=0;ctrl_lost=0;qdrops=0;delay=19102373;rt_delay=19102583;rotation=4627023;hold=0;util=3;invariants_ok=1;"},
    // Recorded before the engines moved onto traffic::SourceSet.
    {32, Mode::kMixed, "ring=31;rounds=60;hops=1871;tx=1807;transit=26003;delivered=1742;lost_link=27;lost_teardown=17;stale=10;rt_del=1133;as_del=270;be_del=339;joins=0;leaves=0;recoveries=1;losses_detected=1;rebuilds=0;raps=0;ctrl_lost=0;qdrops=759;delay=123622;rt_delay=164474;rotation=34352;hold=14000;util=430;invariants_ok=1;flows=58be02bfbef1e764;"},
    // Silent stations and an unreachable hop under saturated traffic.
    {32, Mode::kStall, "ring=31;rounds=77;hops=2367;tx=2391;transit=35456;delivered=2219;lost_link=32;lost_teardown=39;stale=89;rt_del=1438;as_del=0;be_del=781;joins=1;leaves=0;recoveries=2;losses_detected=2;rebuilds=0;raps=46;ctrl_lost=0;qdrops=0;delay=147711;rt_delay=147373;rotation=38668;hold=6000;util=413;invariants_ok=1;"},
    {256, Mode::kStall, "ring=255;rounds=7;hops=1256;tx=1437;transit=162617;delivered=1139;lost_link=42;lost_teardown=127;stale=1;rt_del=757;as_del=0;be_del=382;joins=0;leaves=0;recoveries=1;losses_detected=2;rebuilds=1;raps=0;ctrl_lost=0;qdrops=0;delay=2106006;rt_delay=2106058;rotation=281177;hold=0;util=134;invariants_ok=1;"},
};

class SoaDigest : public ::testing::TestWithParam<Cell> {};

TEST_P(SoaDigest, MatchesPreSoaOracle) {
  const Cell& cell = GetParam();
  const std::string digest = scenario_digest(cell.n, cell.mode);
  if (std::getenv("WRT_DIGEST_CAPTURE") != nullptr) {
    std::printf("CAPTURE {%zu, Mode::k%c%s, \"%s\"},\n", cell.n,
                static_cast<char>(std::toupper(mode_name(cell.mode)[0])),
                mode_name(cell.mode) + 1, digest.c_str());
    GTEST_SKIP() << "capture mode";
  }
  EXPECT_EQ(digest, cell.expected)
      << "n=" << cell.n << " mode=" << mode_name(cell.mode);
}

std::string cell_name(const ::testing::TestParamInfo<Cell>& cell_info) {
  std::string name = "N";
  name += std::to_string(cell_info.param.n);
  name += '_';
  name += mode_name(cell_info.param.mode);
  return name;
}

INSTANTIATE_TEST_SUITE_P(Oracle, SoaDigest, ::testing::ValuesIn(kExpected),
                         cell_name);

// Partial occupancy on a lossy ring.  The cells above either run a clean
// channel or saturate every station, so on a lossy ring every link is
// busy.  These run ring-faults' traffic shape (bench/e2e/ring_workload.cpp:
// RT CBR at period 4N to the opposite station, a best-effort backlog of 8
// on odd stations) over a bursty data channel, so only part of the links
// carry a frame in a slot.  One station stalls past the SAT timeout, is cut
// out, resumes and rejoins through the rotating RAP: the ring goes from N
// to N-1 to N link columns (at N = 65: two 64-bit words, one, two).  The
// fidelity cell also sends every busy hop through cdma::Channel, pinning
// its collision count and header round trips; with two-hop-distinct codes
// both must stay 0 whatever order the busy hops transmit in.
std::string occupancy_digest(std::size_t n, bool fidelity) {
  phy::Topology topology = phy::ring_room(n);
  Config config;
  config.sat_timeout_slots = static_cast<std::int64_t>(4 * n + 64);
  config.rap_policy = RapPolicy::kRotating;
  config.auto_rejoin = true;
  config.cdma_fidelity = fidelity;
  config.channel.data = fault::GeParams::bursty(0.01, 8.0);
  Engine engine(&topology, config, /*seed=*/11);
  const auto period = static_cast<std::int64_t>(4 * n);
  for (NodeId s = 0; s < n; ++s) {
    traffic::FlowSpec rt;
    rt.id = s;
    rt.src = s;
    rt.dst = static_cast<NodeId>((s + n / 2) % n);
    rt.cls = TrafficClass::kRealTime;
    rt.kind = traffic::ArrivalKind::kCbr;
    rt.period_slots = static_cast<double>(period);
    rt.start_slot = static_cast<std::int64_t>(s * 7) % period;
    engine.add_source(rt);
    if (s % 2 == 1) {
      traffic::FlowSpec be;
      be.id = static_cast<FlowId>(n + s);
      be.src = s;
      be.dst = static_cast<NodeId>((s + 1 + (s * 7) % (n - 1)) % n);
      be.cls = TrafficClass::kBestEffort;
      engine.add_saturated_source(be, 8);
    }
  }
  if (!engine.init().ok()) return "init-failed";
  engine.run_slots(1024);
  const NodeId stalled = engine.virtual_ring().station_at(n / 3);
  engine.stall_station(stalled);
  engine.run_slots(2 * config.sat_timeout_slots + 512);
  const std::size_t cut_ring = engine.virtual_ring().size();
  engine.resume_station(stalled);
  // The rotating RAP reaches the rejoiner's neighbourhood within one lap
  // of RAP owners; then the ring runs on N columns again.
  for (int i = 0; i < 64 && !engine.virtual_ring().contains(stalled); ++i) {
    engine.run_slots(1024);
  }
  engine.run_slots(2048);
  const EngineStats& stats = engine.stats();
  return engine_digest(engine) + field("cut_ring", cut_ring) +
         field("collisions", stats.cdma_collisions) +
         field("header_failures", stats.header_decode_failures);
}

struct OccupancyCell {
  std::size_t n;
  bool fidelity;
  const char* expected;
};

// gtest would otherwise print the cell's bytes, the `expected` pointer's
// among them, into the listed test name.
void PrintTo(const OccupancyCell& cell, std::ostream* os) {
  *os << "n=" << cell.n << (cell.fidelity ? " fidelity" : " lossy");
}

// Recorded against the engine whose lossy visit tested every link position.
constexpr OccupancyCell kOccupancyExpected[] = {
    {64, false, "ring=64;rounds=180;hops=11388;tx=8862;transit=212078;delivered=6771;lost_link=2012;lost_teardown=35;stale=23;rt_del=2248;as_del=0;be_del=4523;joins=1;leaves=0;recoveries=1;losses_detected=1;rebuilds=0;raps=116;ctrl_lost=0;qdrops=0;delay=350305;rt_delay=1007;rotation=68990;hold=3363;util=278;invariants_ok=1;cut_ring=63;collisions=0;header_failures=0;"},
    {65, false, "ring=65;rounds=190;hops=12214;tx=9436;transit=248105;delivered=6982;lost_link=2378;lost_teardown=36;stale=18;rt_del=2434;as_del=0;be_del=4548;joins=1;leaves=0;recoveries=1;losses_detected=1;rebuilds=0;raps=125;ctrl_lost=0;qdrops=0;delay=356294;rt_delay=1296;rotation=70818;hold=4909;util=295;invariants_ok=1;cut_ring=64;collisions=0;header_failures=0;"},
    {130, false, "ring=130;rounds=322;hops=41480;tx=31493;transit=1359174;delivered=17325;lost_link=14054;lost_teardown=72;stale=14;rt_del=5501;as_del=0;be_del=11824;joins=1;leaves=0;recoveries=1;losses_detected=1;rebuilds=0;raps=191;ctrl_lost=0;qdrops=0;delay=701565;rt_delay=1414;rotation=135909;hold=5396;util=244;invariants_ok=1;cut_ring=129;collisions=0;header_failures=0;"},
    {65, true, "ring=65;rounds=190;hops=12214;tx=9436;transit=248105;delivered=6982;lost_link=2378;lost_teardown=36;stale=18;rt_del=2434;as_del=0;be_del=4548;joins=1;leaves=0;recoveries=1;losses_detected=1;rebuilds=0;raps=125;ctrl_lost=0;qdrops=0;delay=356294;rt_delay=1296;rotation=70818;hold=4909;util=295;invariants_ok=1;cut_ring=64;collisions=0;header_failures=0;"},
};

class OccupancyDigest : public ::testing::TestWithParam<OccupancyCell> {};

TEST_P(OccupancyDigest, MatchesPositionLoopEngine) {
  const OccupancyCell& cell = GetParam();
  const std::string digest = occupancy_digest(cell.n, cell.fidelity);
  if (std::getenv("WRT_DIGEST_CAPTURE") != nullptr) {
    std::printf("CAPTURE {%zu, %s, \"%s\"},\n", cell.n,
                cell.fidelity ? "true" : "false", digest.c_str());
    GTEST_SKIP() << "capture mode";
  }
  EXPECT_EQ(digest, cell.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Lossy, OccupancyDigest, ::testing::ValuesIn(kOccupancyExpected),
    [](const ::testing::TestParamInfo<OccupancyCell>& cell) {
      return "N" + std::to_string(cell.param.n) +
             (cell.param.fidelity ? "_fidelity" : "_lossy");
    });

}  // namespace
}  // namespace wrt::wrtring
