#include "ring/virtual_ring.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace wrt::ring {
namespace {

[[nodiscard]] bool has_duplicate(std::vector<NodeId> ids) {
  std::sort(ids.begin(), ids.end());
  return std::adjacent_find(ids.begin(), ids.end()) != ids.end();
}

}  // namespace

VirtualRing::VirtualRing(std::vector<NodeId> order) : order_(std::move(order)) {
  if (has_duplicate(order_)) {
    throw std::invalid_argument("VirtualRing: duplicate station in order");
  }
}

NodeId VirtualRing::station_at(std::size_t pos) const {
  if (order_.empty()) throw std::out_of_range("VirtualRing: empty");
  return order_[pos % order_.size()];
}

std::size_t VirtualRing::position_of(NodeId node) const {
  const auto position = find_position(node);
  if (!position.has_value()) {
    throw std::out_of_range("VirtualRing: node not in ring");
  }
  return *position;
}

std::optional<std::size_t> VirtualRing::find_position(
    NodeId node) const noexcept {
  const auto it = std::find(order_.begin(), order_.end(), node);
  if (it == order_.end()) return std::nullopt;
  return static_cast<std::size_t>(it - order_.begin());
}

bool VirtualRing::contains(NodeId node) const noexcept {
  return std::find(order_.begin(), order_.end(), node) != order_.end();
}

NodeId VirtualRing::successor(NodeId node) const {
  return station_at(position_of(node) + 1);
}

NodeId VirtualRing::predecessor(NodeId node) const {
  return station_at(position_of(node) + order_.size() - 1);
}

void VirtualRing::insert_after(NodeId existing, NodeId newcomer) {
  if (contains(newcomer)) {
    throw std::invalid_argument("VirtualRing: newcomer already in ring");
  }
  const std::size_t pos = position_of(existing);
  order_.insert(order_.begin() + static_cast<std::ptrdiff_t>(pos) + 1,
                newcomer);
}

void VirtualRing::remove(NodeId node) {
  const std::size_t pos = position_of(node);
  order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(pos));
}

bool VirtualRing::valid_over(const phy::Topology& topology) const {
  if (order_.size() < 3) return false;
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const NodeId a = order_[i];
    const NodeId b = order_[(i + 1) % order_.size()];
    if (!topology.reachable(a, b)) return false;
  }
  return true;
}

namespace {

/// Backtracking Hamiltonian-cycle search.  Nodes are extended in
/// fewest-remaining-neighbours order (Warnsdorff-style) which resolves most
/// unit-disk instances without exhausting the budget.
///
/// The constructor reads reachability once, into one bit row per member;
/// each step is then word operations on the rows.  What fixes the search's
/// trace (the cycle found, or the failure, at every budget), which
/// RingSearchDigest pins cell by cell:
///  - bit j of member i's row is topology.reachable(member i, member j),
///    read from the topology's neighbour table, so failed links, partitions,
///    liveness and shadowing are the topology's;
///  - members are ranked by ascending NodeId, so a row's set bits, walked
///    low to high, list a tail's candidates in ascending NodeId order;
///  - a candidate's key is its free degree, every node it reaches that is
///    off the path.  Members count by popcount; non-members are never on
///    the path, so they add a constant per member;
///  - every key is computed before the sort, and the sort is std::sort:
///    above 16 elements introsort reorders ties, and the cycle found
///    depends on that order;
///  - the path starts at members.front(); every extend() costs one unit of
///    budget, checked before the path-length test.
/// All working state belongs to the search object, because federation shards
/// build rings concurrently.
class HamiltonianSearch {
 public:
  HamiltonianSearch(const phy::Topology& topology,
                    const std::vector<NodeId>& members, std::size_t budget)
      : by_rank_(members),
        words_((members.size() + 63) / 64),
        budget_(budget) {
    std::sort(by_rank_.begin(), by_rank_.end());
    constexpr std::uint32_t kNotMember = ~std::uint32_t{0};
    std::vector<std::uint32_t> rank_of(topology.node_count(), kNotMember);
    for (std::uint32_t r = 0; r < by_rank_.size(); ++r) {
      rank_of[by_rank_[r]] = r;
    }
    rows_.assign(by_rank_.size() * words_, 0);
    outside_.assign(by_rank_.size(), 0);
    const phy::NeighborTable table = topology.neighbor_table();
    for (std::uint32_t r = 0; r < by_rank_.size(); ++r) {
      for (const NodeId other : table.row(by_rank_[r])) {
        if (rank_of[other] == kNotMember) {
          ++outside_[r];
        } else {
          set_bit(row(r), rank_of[other]);
        }
      }
    }
    start_ = rank_of[members.front()];
  }

  [[nodiscard]] bool run(std::vector<NodeId>& cycle_out) {
    off_path_.assign(words_, 0);
    for (std::uint32_t r = 0; r < by_rank_.size(); ++r) {
      set_bit(off_path_.data(), r);
    }
    path_.assign(1, start_);
    clear_bit(off_path_.data(), start_);
    if (!extend()) return false;
    cycle_out.clear();
    for (const std::uint32_t r : path_) cycle_out.push_back(by_rank_[r]);
    return true;
  }

 private:
  struct Candidate {
    std::size_t free_degree;
    std::uint32_t rank;
  };

  static void set_bit(std::uint64_t* bits, std::uint32_t i) {
    bits[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  static void clear_bit(std::uint64_t* bits, std::uint32_t i) {
    bits[i / 64] &= ~(std::uint64_t{1} << (i % 64));
  }
  [[nodiscard]] static bool test_bit(const std::uint64_t* bits,
                                     std::uint32_t i) {
    return ((bits[i / 64] >> (i % 64)) & 1U) != 0;
  }

  [[nodiscard]] std::uint64_t* row(std::uint32_t r) {
    return rows_.data() + r * words_;
  }

  [[nodiscard]] bool extend() {
    if (budget_ == 0) return false;
    --budget_;
    const std::uint64_t* tail = row(path_.back());
    if (path_.size() == by_rank_.size()) {
      return test_bit(tail, path_.front());
    }
    // Deeper calls stack their lists above this one's: iterate by index.
    const std::size_t first = candidates_.size();
    for (std::size_t w = 0; w < words_; ++w) {
      for (std::uint64_t bits = tail[w] & off_path_[w]; bits != 0;
           bits &= bits - 1) {
        const auto r = static_cast<std::uint32_t>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
        candidates_.push_back({free_degree(r), r});
      }
    }
    const std::size_t last = candidates_.size();
    // Fewest-onward-moves first.
    std::sort(candidates_.begin() + static_cast<std::ptrdiff_t>(first),
              candidates_.end(), [](const Candidate& a, const Candidate& b) {
                return a.free_degree < b.free_degree;
              });
    for (std::size_t i = first; i < last; ++i) {
      const std::uint32_t next = candidates_[i].rank;
      path_.push_back(next);
      clear_bit(off_path_.data(), next);
      if (extend()) return true;
      set_bit(off_path_.data(), next);
      path_.pop_back();
    }
    candidates_.resize(first);
    return false;
  }

  [[nodiscard]] std::size_t free_degree(std::uint32_t r) {
    const std::uint64_t* reach = row(r);
    std::size_t degree = outside_[r];
    for (std::size_t w = 0; w < words_; ++w) {
      degree +=
          static_cast<std::size_t>(std::popcount(reach[w] & off_path_[w]));
    }
    return degree;
  }

  std::vector<NodeId> by_rank_;          ///< members, ascending NodeId
  std::size_t words_;                    ///< 64-bit words per member row
  std::vector<std::uint64_t> rows_;      ///< members each member reaches
  std::vector<std::uint32_t> outside_;   ///< non-members each member reaches
  std::uint32_t start_ = 0;              ///< rank of members.front()
  std::size_t budget_;
  std::vector<std::uint64_t> off_path_;  ///< members not on the path
  std::vector<std::uint32_t> path_;      ///< ranks, in path order
  std::vector<Candidate> candidates_;    ///< every depth's list, stacked
};

}  // namespace

util::Result<VirtualRing> build_ring(const phy::Topology& topology,
                                     std::size_t backtrack_budget) {
  std::vector<NodeId> alive;
  for (NodeId i = 0; i < topology.node_count(); ++i) {
    if (topology.alive(i)) alive.push_back(i);
  }
  return build_ring_over(topology, std::move(alive), backtrack_budget);
}

std::vector<NodeId> largest_component(const phy::Topology& topology) {
  std::vector<std::vector<NodeId>> components = topology.components();
  if (components.empty()) return {};
  // max_element keeps the first of equally large components.
  return std::move(*std::max_element(
      components.begin(), components.end(),
      [](const auto& a, const auto& b) { return a.size() < b.size(); }));
}

util::Result<VirtualRing> build_ring_over(const phy::Topology& topology,
                                          std::vector<NodeId> members,
                                          std::size_t backtrack_budget) {
  const std::vector<NodeId>& alive = members;
  // Checked before anything indexes by NodeId.
  for (const NodeId n : alive) {
    if (n >= topology.node_count()) {
      return util::Error::invalid_argument("unknown station in member set");
    }
    if (!topology.alive(n)) {
      return util::Error::invalid_argument("dead station in member set");
    }
  }
  if (has_duplicate(alive)) {
    return util::Error::invalid_argument("duplicate station in member set");
  }
  if (alive.size() < 3) {
    return util::Error::no_ring_possible("need at least 3 alive stations");
  }

  // Heuristic 1: angular order around the centroid.  Indoor placements are
  // blob-shaped, so this usually yields a feasible cycle immediately.
  phy::Vec2 centroid{0.0, 0.0};
  for (const NodeId n : alive) centroid = centroid + topology.position(n);
  centroid = centroid * (1.0 / static_cast<double>(alive.size()));
  std::vector<NodeId> angular = alive;
  std::sort(angular.begin(), angular.end(), [&](NodeId a, NodeId b) {
    const phy::Vec2 pa = topology.position(a) - centroid;
    const phy::Vec2 pb = topology.position(b) - centroid;
    return std::atan2(pa.y, pa.x) < std::atan2(pb.y, pb.x);
  });
  VirtualRing angular_ring(angular);
  if (angular_ring.valid_over(topology)) return angular_ring;

  // Heuristic 2: bounded backtracking Hamiltonian-cycle search.
  HamiltonianSearch search(topology, alive, backtrack_budget);
  std::vector<NodeId> cycle;
  if (search.run(cycle)) return VirtualRing(cycle);

  return util::Error::no_ring_possible(
      "no Hamiltonian cycle found within the search budget");
}

}  // namespace wrt::ring
