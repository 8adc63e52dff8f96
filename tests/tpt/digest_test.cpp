// Fixed-seed digest oracle for the TPT engine.
//
// The same reproducibility contract as the WRT-Ring (soa_digest_test.cpp)
// and slotted-Aloha (tests/aloha/digest_test.cpp) oracles: each (station
// count, scenario mode) cell runs a fully seeded simulation over the mixed
// source set of tests/mixed_sources.hpp — CBR, Poisson, on-off, trace and
// saturated sources — and reduces TptStats to one canonical string.  Any
// drift in the token walk, the timed-token budgets, the fault-plane draws
// or the traffic poll shows up as a digest mismatch.
//
// Regenerating after a *deliberate* protocol change:
//   WRT_DIGEST_CAPTURE=1 ./test_tpt --gtest_filter='*TptDigest*' 2>,out
// and paste the printed table back into kExpected.
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "fault/gilbert_elliott.hpp"
#include "phy/topology.hpp"
#include "tests/mixed_sources.hpp"
#include "tpt/engine.hpp"

namespace wrt::tpt {
namespace {

enum class Mode { kClean, kLossy, kChurn };

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kClean: return "clean";
    case Mode::kLossy: return "lossy";
    case Mode::kChurn: return "churn";
  }
  return "?";
}

constexpr std::int64_t kHorizonSlots = 4096;

std::string field(const char* key, std::uint64_t value) {
  return std::string(key) + "=" + std::to_string(value) + ";";
}

std::string field_milli(const char* key, double value) {
  return std::string(key) + "=" +
         std::to_string(static_cast<long long>(value * 1000.0)) + ";";
}

std::string engine_digest(const TptEngine& engine) {
  const TptStats& stats = engine.stats();
  const traffic::Sink& sink = stats.sink;
  std::string digest;
  digest += field("tree", engine.tree().size());
  digest += field("hops", stats.token_hops);
  digest += field("rounds", stats.token_rounds);
  digest += field("tx", stats.data_transmissions);
  digest += field("detected", stats.losses_detected);
  digest += field("claims", stats.claims_succeeded);
  digest += field("rebuilds", stats.tree_rebuilds);
  digest += field("joins", stats.joins_completed);
  digest += field("lost", stats.frames_lost);
  digest += field("data_fades", stats.data_channel_losses);
  digest += field("token_fades", stats.token_channel_losses);
  digest += field("delivered", sink.total_delivered());
  for (const auto& [key, cls] :
       {std::pair{"rt", TrafficClass::kRealTime},
        std::pair{"as", TrafficClass::kAssured},
        std::pair{"be", TrafficClass::kBestEffort}}) {
    const traffic::Sink::ClassStats& by_class = sink.by_class(cls);
    digest += field((std::string(key) + "_del").c_str(), by_class.delivered);
    digest += field((std::string(key) + "_drop").c_str(), by_class.dropped);
  }
  digest += field("rt_miss",
                  sink.by_class(TrafficClass::kRealTime).deadline_misses);
  digest += field_milli("rotation", stats.token_rotation_slots.mean());
  digest += field_milli("delay", stats.access_delay_slots.mean());
  digest += field_milli("rt_delay", stats.rt_access_delay_slots.mean());
  digest += field_milli("join_latency", stats.join_latency_slots.mean());
  digest += test_fixtures::flow_digest(sink);
  digest += field("invariants_ok", engine.check_invariants().ok() ? 1 : 0);
  return digest;
}

std::string scenario_digest(std::size_t n, Mode mode) {
  phy::Topology topology(phy::placement::circle(n, 5.0),
                         phy::RadioParams{100.0, 0.0});
  TptConfig config;
  config.ttrt_slots = static_cast<std::int64_t>(4 * n);
  config.h_sync_default = 2;
  config.queue_capacity = 8;
  if (mode == Mode::kLossy) {
    config.channel.data = fault::GeParams::bursty(0.05, 8.0);
    config.channel.sat = fault::GeParams::iid(0.002);
  }
  if (mode == Mode::kChurn) config.rap_every_rounds = 4;
  TptEngine engine(&topology, config, /*seed=*/7);
  if (!engine.init().ok()) return "init-failed";
  test_fixtures::attach_mixed_sources(engine, n, kHorizonSlots);
  if (mode == Mode::kChurn) {
    engine.run_slots(1024);
    engine.kill_station(3);
    engine.run_slots(1536);
    engine.request_join(topology.add_node({0.0, 0.0}));
    engine.run_slots(1536);
  } else {
    engine.run_slots(kHorizonSlots);
  }
  return engine_digest(engine);
}

struct Cell {
  std::size_t n;
  Mode mode;
  const char* expected;
};

// Recorded before the engines moved onto traffic::SourceSet; see the header
// comment for the capture procedure.
constexpr Cell kExpected[] = {
    {8, Mode::kClean,
     "tree=8;hops=1793;rounds=129;tx=1563;detected=0;claims=0;rebuilds=0;joins=0;lost=0;data_fades=0;token_fades=0;delivered=1563;rt_del=1363;rt_drop=1278;as_del=81;as_drop=420;be_del=119;be_drop=423;rt_miss=1150;rotation=32012;delay=151295;rt_delay=95679;join_latency=0;flows=72177b11ac1cb48d;invariants_ok=1;"},
    {8, Mode::kLossy,
     "tree=8;hops=1703;rounds=123;tx=1489;detected=4;claims=4;rebuilds=0;joins=0;lost=60;data_fades=60;token_fades=4;delivered=1429;rt_del=1246;rt_drop=1386;as_del=69;as_drop=432;be_del=114;be_drop=424;rt_miss=1073;rotation=33598;delay=161189;rt_delay=101967;join_latency=0;flows=dae51e8ce9d8b952;invariants_ok=1;"},
    {8, Mode::kChurn,
     "tree=8;hops=1593;rounds=121;tx=1521;detected=1;claims=0;rebuilds=1;joins=1;lost=19;data_fades=0;token_fades=0;delivered=1502;rt_del=1291;rt_drop=1347;as_del=133;as_drop=371;be_del=78;be_drop=486;rt_miss=1101;rotation=33126;delay=137102;rt_delay=102960;join_latency=10000;flows=c0c87ab70760adce;invariants_ok=1;"},
    {24, Mode::kClean,
     "tree=24;hops=1916;rounds=42;tx=1448;detected=0;claims=0;rebuilds=0;joins=0;lost=0;data_fades=0;token_fades=0;delivered=1448;rt_del=1433;rt_drop=1820;as_del=4;as_drop=492;be_del=11;be_drop=513;rt_miss=1163;rotation=98460;delay=291066;rt_delay=275357;join_latency=0;flows=b69b7d1f28af9dd1;invariants_ok=1;"},
    {24, Mode::kLossy,
     "tree=24;hops=1778;rounds=39;tx=1346;detected=2;claims=2;rebuilds=0;joins=0;lost=103;data_fades=103;token_fades=2;delivered=1243;rt_del=1236;rt_drop=2017;as_del=2;as_drop=494;be_del=5;be_drop=517;rt_miss=1051;rotation=106121;delay=311846;rt_delay=307530;join_latency=0;flows=bd5ff0ef9de84e1a;invariants_ok=1;"},
    {24, Mode::kChurn,
     "tree=24;hops=1708;rounds=39;tx=1327;detected=1;claims=0;rebuilds=1;joins=1;lost=0;data_fades=0;token_fades=0;delivered=1327;rt_del=1312;rt_drop=1940;as_del=7;as_drop=489;be_del=8;be_drop=516;rt_miss=1129;rotation=99223;delay=339435;rt_delay=323025;join_latency=375000;flows=2111063ff101d495;invariants_ok=1;"},
};

class TptDigest : public ::testing::TestWithParam<Cell> {};

TEST_P(TptDigest, MatchesGoldenOracle) {
  const Cell& cell = GetParam();
  const std::string digest = scenario_digest(cell.n, cell.mode);
  if (std::getenv("WRT_DIGEST_CAPTURE") != nullptr) {
    std::printf("CAPTURE {%zu, Mode::k%c%s,\n     \"%s\"},\n", cell.n,
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

INSTANTIATE_TEST_SUITE_P(Oracle, TptDigest, ::testing::ValuesIn(kExpected),
                         cell_name);

}  // namespace
}  // namespace wrt::tpt
