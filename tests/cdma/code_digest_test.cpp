// Digest suite pinning the CDMA code assignment (Section 2.1's distance-2
// receive codes) cell by cell.
//
// Each cell is one of the shared layouts (tests/phy/layouts.hpp) and
// records:
//   - the greedy code map (FNV-1a hash) and its codes_used();
//   - the distributed map (hash) and its round count, at a fixed seed;
//   - the verify_two_hop_distinct() verdict on both maps and on a corrupted
//     copy of the greedy map, in which one station takes the code of a
//     station two hops away (or of a neighbour, when no station is exactly
//     two hops away).
//
// The expected table was recorded against the assignment that walked every
// two-hop set through Topology::neighbors(), before the whole-graph passes
// moved onto the neighbour table.  Regenerating after a *deliberate* change
// to the assignment:
//   WRT_DIGEST_CAPTURE=1 ./test_cdma --gtest_filter='*CdmaCodeDigest*'
// and paste the printed lines back into kExpected.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cdma/code_assignment.hpp"
#include "tests/phy/layouts.hpp"

namespace wrt::cdma {
namespace {

using layouts::LayoutSpec;

constexpr std::uint64_t kDistributedSeed = 0xD15C;

std::string hash_hex(const CodeMap& codes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const CdmaCode code : codes) {
    hash ^= code;
    hash *= 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(hash));
  return hex;
}

/// The greedy map with one station's code copied from a station two hops
/// away (a neighbour when no alive station has one).
CodeMap corrupted(const phy::Topology& topology, CodeMap codes) {
  NodeId fallback = kInvalidNode;
  for (NodeId node = 0; node < topology.node_count(); ++node) {
    if (!topology.alive(node)) continue;
    const std::vector<NodeId> one_hop = topology.neighbors(node);
    if (one_hop.empty()) continue;
    if (fallback == kInvalidNode) fallback = node;
    for (const NodeId other : two_hop_neighbors(topology, node)) {
      if (!std::binary_search(one_hop.begin(), one_hop.end(), other)) {
        codes[node] = codes[other];
        return codes;
      }
    }
  }
  if (fallback != kInvalidNode) {
    codes[fallback] = codes[topology.neighbors(fallback).front()];
  }
  return codes;
}

std::string cell_digest(const phy::Topology& topology) {
  const CodeMap greedy = assign_greedy_two_hop(topology);
  std::size_t rounds = 0;
  const CodeMap distributed =
      assign_distributed(topology, kDistributedSeed, &rounds);
  const bool verdicts[] = {
      verify_two_hop_distinct(topology, greedy),
      verify_two_hop_distinct(topology, distributed),
      verify_two_hop_distinct(topology, corrupted(topology, greedy))};
  std::string digest = "n=" + std::to_string(topology.node_count()) +
                       ";greedy=" + hash_hex(greedy) + "/" +
                       std::to_string(codes_used(greedy)) +
                       ";distributed=" + hash_hex(distributed) + "/" +
                       std::to_string(rounds) + ";verify=";
  for (const bool verdict : verdicts) digest += verdict ? '1' : '0';
  return digest;
}

struct Expected {
  const char* cell;
  const char* digest;
};

// Recorded against the neighbors()-walking assignment (see header comment).
constexpr Expected kExpected[] = {
    {"ring16_0",
     "n=16;greedy=2972c031d9bf8cf4/6;distributed=83409e669e141a4a/2;verify=110"},
    {"ring64_0",
     "n=64;greedy=d80947e85fcd4441/9;distributed=fa647dd5c0841610/2;verify=110"},
    {"ring256_0",
     "n=256;greedy=4386d7462ab92c64/6;distributed=1fd789dac5a54ee7/2;verify=110"},
    {"ring1024_0",
     "n=1024;greedy=8895066053e06a01/9;distributed=1167c3a02827ce94/2;verify=110"},
    {"dense32_0",
     "n=32;greedy=cb4e0588c4eb08c5/32;distributed=eedecf4c8b490c11/2;verify=110"},
    {"dense64_0",
     "n=64;greedy=e3b3e757a138cce5/64;distributed=4b58db230f05e9b9/2;verify=110"},
    {"chain12_0",
     "n=12;greedy=baa5d16f7dd20e05/3;distributed=67cf4bad5f588941/2;verify=110"},
    {"finechain40_0",
     "n=40;greedy=8b1ecdec647bdd6c/3;distributed=f626a9a60ab20a42/2;verify=110"},
    {"grid6_0",
     "n=36;greedy=1942a5b8b2b60bcd/7;distributed=963b810e96d2c4cc/2;verify=110"},
    {"griddiagonal6_0",
     "n=36;greedy=21dd1ce837c1e729/9;distributed=62ef3fa3edcd59ab/2;verify=110"},
    {"random24_2",
     "n=24;greedy=3a0e99033b726a65/16;distributed=2402ffb01d5b46bd/2;verify=110"},
    {"random48_5",
     "n=48;greedy=b25ea904be8aa0a8/19;distributed=acb54ad03b64ee3b/2;verify=110"},
    {"random96_11",
     "n=96;greedy=d712bdf4cee79ab0/26;distributed=e3174db801a5caea/2;verify=110"},
    {"split24_8",
     "n=24;greedy=31192d14d24f1afa/11;distributed=a6554b8f10c7b933/2;verify=110"},
    {"split48_1",
     "n=48;greedy=e2ce05706b9956d7/17;distributed=93c18af6e1bec8ca/2;verify=110"},
    {"split96_4",
     "n=96;greedy=f8793f2b977eb8a8/18;distributed=549a959e53b47719/2;verify=110"},
    {"added32_0",
     "n=34;greedy=ba79917811d9a8ef/8;distributed=ac9d224d5648a7d0/2;verify=110"},
    {"stacked30_0",
     "n=30;greedy=cf38190935414eeb/23;distributed=0b00540f35295a97/2;verify=110"},
};

class CdmaCodeDigest : public ::testing::TestWithParam<LayoutSpec> {};

TEST_P(CdmaCodeDigest, MatchesNeighborsWalk) {
  const LayoutSpec& spec = GetParam();
  const std::string name = layouts::spec_name(spec);
  const std::string digest = cell_digest(layouts::make_layout(spec));
  if (std::getenv("WRT_DIGEST_CAPTURE") != nullptr) {
    std::printf("CAPTURE {\"%s\", \"%s\"},\n", name.c_str(), digest.c_str());
    GTEST_SKIP() << "capture mode";
  }
  const auto* entry =
      std::find_if(std::begin(kExpected), std::end(kExpected),
                   [&](const Expected& e) { return name == e.cell; });
  ASSERT_NE(entry, std::end(kExpected)) << "no expected digest for " << name;
  EXPECT_EQ(digest, entry->digest);
}

std::string cell_name(const ::testing::TestParamInfo<LayoutSpec>& info) {
  return layouts::spec_name(info.param);
}

INSTANTIATE_TEST_SUITE_P(Oracle, CdmaCodeDigest,
                         ::testing::ValuesIn(layouts::kSharedLayouts),
                         cell_name);

}  // namespace
}  // namespace wrt::cdma
