#include "cdma/code_assignment.hpp"

#include <algorithm>

namespace wrt::cdma {
namespace {

/// Appends the 2-hop neighbourhood of `node` in `table` to `out`, `node`
/// excluded.  A station reached along several paths appears once per path.
void append_two_hop(const phy::NeighborTable& table, NodeId node,
                    std::vector<NodeId>& out) {
  for (const NodeId n1 : table.row(node)) {
    out.push_back(n1);
    for (const NodeId n2 : table.row(n1)) {
      if (n2 != node) out.push_back(n2);
    }
  }
}

/// The smallest code >= 1 that no station in `others` holds.  `taken` is
/// working storage, one flag per code.  At most others.size() codes are
/// taken, so the answer is at most others.size() + 1 and larger codes need
/// no flag.
CdmaCode smallest_free(const std::vector<NodeId>& others, const CodeMap& codes,
                       std::vector<char>& taken) {
  taken.assign(others.size() + 2, 0);
  for (const NodeId other : others) {
    if (other >= codes.size()) continue;
    const CdmaCode code = codes[other];
    if (code != kInvalidCode && code < taken.size()) taken[code] = 1;
  }
  CdmaCode code = 1;
  while (taken[code] != 0) ++code;
  return code;
}

}  // namespace

std::vector<NodeId> two_hop_neighbors(const phy::Topology& topology,
                                      NodeId node) {
  std::vector<NodeId> result;
  for (const NodeId n1 : topology.neighbors(node)) {
    result.push_back(n1);
    for (const NodeId n2 : topology.neighbors(n1)) {
      if (n2 != node) result.push_back(n2);
    }
  }
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

CdmaCode smallest_free_code(const phy::Topology& topology,
                            const CodeMap& codes, NodeId node) {
  std::vector<char> taken;
  return smallest_free(two_hop_neighbors(topology, node), codes, taken);
}

CodeMap assign_greedy_two_hop(const phy::Topology& topology) {
  const auto n = topology.node_count();
  const phy::NeighborTable table = topology.neighbor_table();
  CodeMap codes(n, kInvalidCode);
  std::vector<NodeId> others;
  std::vector<char> taken;
  for (NodeId node = 0; node < n; ++node) {
    if (!topology.alive(node)) continue;
    others.clear();
    append_two_hop(table, node, others);
    codes[node] = smallest_free(others, codes, taken);
  }
  return codes;
}

CodeMap assign_distributed(const phy::Topology& topology, std::uint64_t seed,
                           std::size_t* rounds_out) {
  const auto n = topology.node_count();
  const phy::NeighborTable table = topology.neighbor_table();
  // Start from an intentionally conflicting state: everyone picks code 1.
  CodeMap codes(n, kInvalidCode);
  std::vector<NodeId> order;
  for (NodeId node = 0; node < n; ++node) {
    if (topology.alive(node)) {
      codes[node] = 1;
      order.push_back(node);
    }
  }

  util::RngStream rng(seed, 0xC0DE);
  std::vector<NodeId> others;
  std::vector<char> taken;
  std::size_t rounds = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    ++rounds;
    rng.shuffle(order);
    for (const NodeId node : order) {
      others.clear();
      append_two_hop(table, node, others);
      // A node keeps its code unless a 2-hop neighbour holds the same one.
      if (std::none_of(others.begin(), others.end(), [&](NodeId other) {
            return codes[other] == codes[node];
          })) {
        continue;
      }
      codes[node] = smallest_free(others, codes, taken);
      changed = true;
    }
  }
  if (rounds_out != nullptr) *rounds_out = rounds;
  return codes;
}

bool verify_two_hop_distinct(const phy::Topology& topology,
                             const CodeMap& codes) {
  const auto n = topology.node_count();
  for (NodeId node = 0; node < n; ++node) {
    if (!topology.alive(node)) continue;
    if (node >= codes.size()) return false;
    if (codes[node] == kBroadcastCode || codes[node] == kInvalidCode) {
      return false;
    }
  }
  // Every alive node has a code, and a row holds only alive nodes.
  const phy::NeighborTable table = topology.neighbor_table();
  std::vector<NodeId> others;
  for (NodeId node = 0; node < n; ++node) {
    if (!topology.alive(node)) continue;
    others.clear();
    append_two_hop(table, node, others);
    for (const NodeId other : others) {
      if (codes[other] == codes[node]) return false;
    }
  }
  return true;
}

std::size_t codes_used(const CodeMap& codes) {
  CodeMap distinct;
  for (const CdmaCode code : codes) {
    if (code != kInvalidCode) distinct.push_back(code);
  }
  std::sort(distinct.begin(), distinct.end());
  return static_cast<std::size_t>(
      std::unique(distinct.begin(), distinct.end()) - distinct.begin());
}

}  // namespace wrt::cdma
