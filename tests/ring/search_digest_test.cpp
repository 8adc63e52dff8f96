// Digest suite pinning ring::build_ring_over's backtracking search.
//
// Every cell is a layout on which the angular heuristic fails, so its
// result comes from the bounded Hamiltonian-cycle search.  A cell records
// the cycle found (its length and a hash of its order) or the error code
// and message.  A cell that finds a cycle also records the smallest budget
// that still finds it: the search must find the same cycle at that budget
// and fail one step below it, which pins the budget accounting to the step.
//
// The layouts cover what the search's order depends on:
//   - partition: the e2e bench's ring-partition split, a 64-station circle
//     minus an arc of 9 stations, at several arc offsets (and at N = 130,
//     more than one 64-bit word of members).  These searches fail on
//     budget, one at the default budget and the others at 20,000 steps;
//   - random: random placements with shadowing, one dead station and one
//     failed link, searched over the full member list, a rotated one (so
//     front() is not the smallest id) and a subset that leaves reachable
//     non-members outside the ring;
//   - clusters: two dense cliques out of each other's range, joined by a
//     band of bridge stations on one side, so the angular ring fails and
//     the first candidate lists hold more than 16 stations tied on free
//     degree (the only cells where std::sort and std::stable_sort differ).
//
// The expected table was recorded against the search that rescanned the
// topology on every step, before it moved onto member bit rows.
// Regenerating after a *deliberate* change to the search:
//   WRT_DIGEST_CAPTURE=1 ./test_ring --gtest_filter='*RingSearchDigest*'
// and paste the printed table back into kExpected.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <numbers>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "phy/topology.hpp"
#include "ring/virtual_ring.hpp"
#include "util/rng.hpp"

namespace wrt::ring {
namespace {

constexpr std::size_t kDefaultBudget = 200000;
constexpr const char* kBudgetSpent =
    "error=no-ring-possible:no Hamiltonian cycle found within the search "
    "budget";

enum class Layout { kPartition, kRandom, kClusters };
enum class Members { kAll, kRotated, kSubset };

const char* layout_name(Layout layout) {
  switch (layout) {
    case Layout::kPartition: return "partition";
    case Layout::kRandom: return "random";
    case Layout::kClusters: return "clusters";
  }
  return "?";
}

const char* members_name(Members members) {
  switch (members) {
    case Members::kAll: return "all";
    case Members::kRotated: return "rotated";
    case Members::kSubset: return "subset";
  }
  return "?";
}

/// "partition" -> "Partition", for the captured table's enumerators.
std::string enum_token(const char* name) {
  std::string token = name;
  token[0] = static_cast<char>(std::toupper(token[0]));
  return token;
}

/// ring-partition's split: the arc of n/7 stations starting at `offset`
/// is walled off from the rest.
phy::Topology partitioned_room(std::size_t n, std::uint64_t offset) {
  phy::Topology topology = phy::ring_room(n);
  std::vector<NodeId> arc;
  for (std::size_t i = 0; i < n / 7; ++i) {
    arc.push_back(static_cast<NodeId>((offset + i) % n));
  }
  topology.set_partition({arc});
  return topology;
}

/// A random connected placement with shadowing, then one station killed
/// and one link failed, both drawn from `seed`.
phy::Topology random_room(std::size_t n, std::uint64_t seed) {
  const double side = 6.0 * std::sqrt(static_cast<double>(n));
  const double range = 13.0;
  auto positions = phy::placement::random_connected(
      n, phy::Rect{{0.0, 0.0}, {side, side}}, range, seed);
  EXPECT_TRUE(positions.ok());
  if (!positions.ok()) return phy::Topology({}, phy::RadioParams{});
  phy::Topology topology(positions.value(), phy::RadioParams{range, 2.0},
                         seed);
  util::RngStream rng(seed, 0x5EA7C);
  topology.set_alive(static_cast<NodeId>(rng.uniform_int(n)), false);
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto a = static_cast<NodeId>(rng.uniform_int(n));
    const auto b = static_cast<NodeId>(rng.uniform_int(n));
    if (topology.reachable(a, b)) {
      topology.fail_link(a, b);
      break;
    }
  }
  return topology;
}

/// Two cliques of `k` stations, jittered inside disks of radius 3 m whose
/// centres are 16 m apart (out of range of each other), under a band of
/// 24 bridge stations that joins them above.  The angular order around the
/// centroid steps from one clique straight to the other below the band, so
/// it never forms a ring, and a candidate list inside a clique holds more
/// than 16 stations tied on free degree.
phy::Topology cluster_room(std::size_t k, std::uint64_t seed) {
  util::RngStream rng(seed, 0xC1A5);
  std::vector<phy::Vec2> positions;
  for (const double cx : {0.0, 16.0}) {
    for (std::size_t i = 0; i < k; ++i) {
      const double r = 3.0 * std::sqrt(rng.uniform());
      const double a = rng.uniform(0.0, 2.0 * std::numbers::pi);
      positions.push_back({cx + r * std::cos(a), r * std::sin(a)});
    }
  }
  for (int i = 0; i < 24; ++i) {
    positions.push_back({rng.uniform(2.0, 14.0), rng.uniform(3.0, 8.0)});
  }
  return phy::Topology(std::move(positions), phy::RadioParams{10.0, 0.0});
}

phy::Topology make_topology(Layout layout, std::size_t n,
                            std::uint64_t param) {
  switch (layout) {
    case Layout::kPartition: return partitioned_room(n, param);
    case Layout::kRandom: return random_room(n, param);
    case Layout::kClusters: return cluster_room(n, param);
  }
  return phy::ring_room(n);
}

std::vector<NodeId> make_members(const phy::Topology& topology,
                                 Members shape) {
  std::vector<NodeId> members = largest_component(topology);
  if (shape == Members::kRotated) {
    std::rotate(members.begin(),
                members.begin() + static_cast<std::ptrdiff_t>(
                                      members.size() / 3),
                members.end());
  } else if (shape == Members::kSubset) {
    // Every fifth station stays alive and in range but out of the ring.
    std::vector<NodeId> kept;
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (i % 5 != 2) kept.push_back(members[i]);
    }
    members = std::move(kept);
  }
  return members;
}

/// The cycle's length and FNV-1a hash of its order, or the error.
std::string outcome_digest(const util::Result<VirtualRing>& result) {
  if (!result.ok()) {
    return "error=" + util::to_string(result.error().code) + ":" +
           result.error().message;
  }
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const NodeId node : result.value().order()) {
    hash ^= node;
    hash *= 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(hash));
  return "ring=" + std::to_string(result.value().size()) + ";order=" + hex;
}

/// The smallest budget that finds a cycle (0 when the angular heuristic
/// already succeeds).  A bounded depth-first search with budget b runs the
/// first b steps of the unbounded one, so success is monotone in b.
std::size_t min_budget(const phy::Topology& topology,
                       const std::vector<NodeId>& members,
                       std::size_t budget) {
  std::size_t lo = 0;
  std::size_t hi = budget;  // succeeds
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (build_ring_over(topology, members, mid).ok()) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

struct Cell {
  Layout layout;
  std::size_t n;
  std::uint64_t param;
  Members members;
  std::size_t budget;
  const char* expected;
  std::size_t min_budget;  ///< 0 for cells whose search fails
};

// Recorded against the topology-rescanning search (see header comment).
constexpr Cell kExpected[] = {
    {Layout::kPartition, 64, 0, Members::kAll, kDefaultBudget, kBudgetSpent, 0},
    {Layout::kPartition, 64, 7, Members::kAll, 20000, kBudgetSpent, 0},
    {Layout::kPartition, 64, 23, Members::kAll, 20000, kBudgetSpent, 0},
    {Layout::kPartition, 64, 41, Members::kAll, 20000, kBudgetSpent, 0},
    {Layout::kPartition, 64, 60, Members::kAll, 20000, kBudgetSpent, 0},
    {Layout::kPartition, 64, 33, Members::kRotated, 20000, kBudgetSpent, 0},
    {Layout::kPartition, 130, 11, Members::kAll, 20000, kBudgetSpent, 0},
    {Layout::kRandom, 24, 2, Members::kAll, 20000, "ring=23;order=b65fe1d72f8168e5", 25},
    {Layout::kRandom, 24, 2, Members::kRotated, 20000, "ring=23;order=f5e3298111049e57", 23},
    {Layout::kRandom, 24, 2, Members::kSubset, 20000, kBudgetSpent, 0},
    {Layout::kRandom, 24, 8, Members::kAll, 20000, "ring=23;order=e399d1947cd36710", 646},
    {Layout::kRandom, 24, 8, Members::kRotated, 20000, "ring=23;order=e5f87fc74dc2ffda", 23},
    {Layout::kRandom, 24, 8, Members::kSubset, 20000, "ring=18;order=2c0a624a1df9cab1", 18},
    {Layout::kRandom, 24, 12, Members::kAll, 20000, "ring=23;order=b3b93c969ab2e034", 1135},
    {Layout::kRandom, 24, 12, Members::kRotated, 20000, kBudgetSpent, 0},
    {Layout::kRandom, 24, 12, Members::kSubset, 20000, "ring=18;order=722f6182571ded2b", 216},
    {Layout::kRandom, 32, 4, Members::kAll, 20000, "ring=31;order=82ef0fa4e47d4c37", 31},
    {Layout::kRandom, 32, 4, Members::kRotated, 20000, "ring=31;order=d7232a90cc71c201", 31},
    {Layout::kRandom, 32, 4, Members::kSubset, 20000, kBudgetSpent, 0},
    {Layout::kRandom, 32, 11, Members::kAll, 20000, "ring=31;order=560248bd9988f72a", 38},
    {Layout::kRandom, 32, 11, Members::kRotated, 20000, kBudgetSpent, 0},
    {Layout::kRandom, 32, 11, Members::kSubset, 20000, kBudgetSpent, 0},
    {Layout::kRandom, 32, 12, Members::kAll, 20000, "ring=31;order=cd96583fe9a1b4ff", 119},
    {Layout::kRandom, 32, 12, Members::kRotated, 20000, "ring=31;order=65fb46792d0f89f5", 33},
    {Layout::kRandom, 32, 12, Members::kSubset, 20000, kBudgetSpent, 0},
    {Layout::kRandom, 48, 1, Members::kAll, 20000, "ring=47;order=5ab23c645c5d854d", 7507},
    {Layout::kRandom, 48, 1, Members::kRotated, 20000, "ring=47;order=a83d5aaabf241957", 49},
    {Layout::kRandom, 48, 1, Members::kSubset, 20000, kBudgetSpent, 0},
    {Layout::kRandom, 48, 5, Members::kAll, 20000, "ring=47;order=faf7f746a1ad4110", 47},
    {Layout::kRandom, 48, 5, Members::kRotated, 20000, "ring=47;order=9dbe3dd667bd668e", 47},
    {Layout::kRandom, 48, 5, Members::kSubset, 20000, "ring=38;order=8cf6dc3c25466bd4", 38},
    {Layout::kClusters, 20, 1, Members::kAll, 20000, "ring=64;order=a9779f3e2834140d", 66},
    {Layout::kClusters, 24, 2, Members::kAll, 20000, "ring=72;order=e4768738e1130313", 72},
    {Layout::kClusters, 28, 10, Members::kAll, 20000, "ring=80;order=7a067f55000bd857", 80},
    {Layout::kClusters, 20, 14, Members::kAll, 20000, "ring=64;order=f2b9914442dbb0a3", 64},
    {Layout::kClusters, 24, 17, Members::kAll, 20000, "ring=72;order=5b8cd7590365c87f", 72},
    {Layout::kClusters, 28, 21, Members::kAll, 20000, "ring=80;order=b500f8e09c2b7b85", 103},
    {Layout::kClusters, 20, 22, Members::kAll, 20000, "ring=64;order=d5ef6de4083dc837", 71},
    {Layout::kClusters, 24, 29, Members::kAll, 20000, "ring=72;order=ae1f88b89b1a7d37", 95},
    {Layout::kClusters, 28, 30, Members::kAll, 20000, "ring=80;order=a451ad363d17f6f3", 80},
    {Layout::kClusters, 28, 16, Members::kAll, 20000, kBudgetSpent, 0},
    {Layout::kClusters, 20, 1, Members::kRotated, 20000, kBudgetSpent, 0},
    {Layout::kClusters, 24, 2, Members::kRotated, 20000, kBudgetSpent, 0},
    {Layout::kClusters, 28, 10, Members::kRotated, 20000, kBudgetSpent, 0},
    {Layout::kClusters, 20, 14, Members::kRotated, 20000, kBudgetSpent, 0},
    {Layout::kClusters, 24, 17, Members::kRotated, 20000, "ring=72;order=78ba322e8a84f50f", 72},
    {Layout::kClusters, 28, 30, Members::kRotated, 20000, "ring=80;order=989a3fa7be3949ab", 80},
    {Layout::kClusters, 20, 1, Members::kSubset, 20000, "ring=51;order=b021bd5660937cbf", 51},
    {Layout::kClusters, 24, 2, Members::kSubset, 20000, kBudgetSpent, 0},
    {Layout::kClusters, 28, 10, Members::kSubset, 20000, "ring=64;order=0116c6bdddaeb729", 64},
    {Layout::kClusters, 20, 14, Members::kSubset, 20000, "ring=51;order=d4208f208f9c9639", 51},
    {Layout::kClusters, 24, 17, Members::kSubset, 20000, "ring=58;order=c90e25ab39619f3a", 58},
    {Layout::kClusters, 28, 30, Members::kSubset, 20000, "ring=64;order=ac3674f952b8680b", 64},
};

class RingSearchDigest : public ::testing::TestWithParam<Cell> {};

TEST_P(RingSearchDigest, MatchesRescanningSearch) {
  const Cell& cell = GetParam();
  const phy::Topology topology = make_topology(cell.layout, cell.n, cell.param);
  const std::vector<NodeId> members = make_members(topology, cell.members);
  const auto result = build_ring_over(topology, members, cell.budget);
  const std::string digest = outcome_digest(result);
  if (std::getenv("WRT_DIGEST_CAPTURE") != nullptr) {
    const std::size_t least =
        result.ok() ? min_budget(topology, members, cell.budget) : 0;
    const std::string budget = cell.budget == kDefaultBudget
                                   ? "kDefaultBudget"
                                   : std::to_string(cell.budget);
    const std::string expected =
        digest == kBudgetSpent ? "kBudgetSpent" : '"' + digest + '"';
    std::printf("CAPTURE {Layout::k%s, %zu, %llu, Members::k%s, %s, %s, %zu},\n",
                enum_token(layout_name(cell.layout)).c_str(), cell.n,
                static_cast<unsigned long long>(cell.param),
                enum_token(members_name(cell.members)).c_str(), budget.c_str(),
                expected.c_str(), least);
    GTEST_SKIP() << "capture mode";
  }
  EXPECT_EQ(digest, cell.expected);
  if (!result.ok()) {
    EXPECT_EQ(cell.min_budget, 0U);
    return;
  }
  // The search, not the angular heuristic, found this cycle.
  ASSERT_GT(cell.min_budget, 0U);
  EXPECT_EQ(outcome_digest(build_ring_over(topology, members, cell.min_budget)),
            cell.expected);
  const auto short_by_one =
      build_ring_over(topology, members, cell.min_budget - 1);
  ASSERT_FALSE(short_by_one.ok());
  EXPECT_EQ(short_by_one.error().code, util::Error::Code::kNoRingPossible);
}

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  const Cell& cell = info.param;
  return std::string(layout_name(cell.layout)) + std::to_string(cell.n) +
         "_" + std::to_string(cell.param) + "_" + members_name(cell.members);
}

INSTANTIATE_TEST_SUITE_P(Oracle, RingSearchDigest,
                         ::testing::ValuesIn(kExpected), cell_name);

}  // namespace
}  // namespace wrt::ring
