#include "wrtring/multiring.hpp"

#include <algorithm>

#include "ring/virtual_ring.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace wrt::wrtring {

MultiRingCoordinator::MultiRingCoordinator(phy::Topology* topology,
                                           Config config, std::uint64_t seed)
    : topology_(topology), config_(std::move(config)), seed_(seed) {}

void MultiRingCoordinator::form_rings_over(const phy::NeighborTable& table,
                                           std::vector<NodeId> component) {
  std::vector<NodeId> group = std::move(component);
  std::vector<NodeId> peeled;
  std::vector<bool> in_group(topology_->node_count(), false);
  for (const NodeId member : group) in_group[member] = true;
  while (group.size() >= 3) {
    if (ring::build_ring_over(*topology_, group).ok()) {
      Config ring_config = config_;
      ring_config.members = group;
      // Seeded by the smallest member: disjoint rings have distinct
      // minima, and a ring's stream does not depend on the other
      // components.
      const NodeId anchor = *std::min_element(group.begin(), group.end());
      auto engine = std::make_unique<Engine>(topology_,
                                             std::move(ring_config),
                                             util::mix_seed(seed_, anchor));
      if (engine->init().ok()) {
        engines_.push_back(std::move(engine));
        if (!peeled.empty()) form_rings_over(table, std::move(peeled));
        return;
      }
    }
    // Peel the station with the fewest in-group neighbours — the usual
    // Hamiltonicity blocker — and retry with the rest.
    std::size_t worst_index = 0;
    std::size_t worst_degree = ~std::size_t{0};
    for (std::size_t i = 0; i < group.size(); ++i) {
      std::size_t degree = 0;
      for (const NodeId neighbor : table.row(group[i])) {
        if (in_group[neighbor]) ++degree;
      }
      if (degree < worst_degree) {
        worst_degree = degree;
        worst_index = i;
      }
    }
    peeled.push_back(group[worst_index]);
    in_group[group[worst_index]] = false;
    group.erase(group.begin() + static_cast<std::ptrdiff_t>(worst_index));
  }
  // Fewer than three left: the group and everything peeled stay unserved.
}

util::Status MultiRingCoordinator::init() {
  const phy::NeighborTable table = topology_->neighbor_table();
  for (std::vector<NodeId>& component : topology_->components()) {
    form_rings_over(table, std::move(component));
  }
  util::log(util::LogLevel::kInfo,
            "MultiRing: " + std::to_string(engines_.size()) + " ring(s), " +
                std::to_string(unserved().size()) + " unserved station(s)");
  if (engines_.empty()) {
    return util::Error::no_ring_possible("no component can host a ring");
  }
  return util::Status::success();
}

void MultiRingCoordinator::step() {
  for (auto& engine : engines_) engine->step();
}

void MultiRingCoordinator::run_slots(std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) step();
}

Engine* MultiRingCoordinator::ring_of(NodeId node) {
  for (const auto& engine : engines_) {
    if (engine->virtual_ring().contains(node)) return engine.get();
  }
  return nullptr;
}

std::vector<NodeId> MultiRingCoordinator::unserved() const {
  std::vector<NodeId> result;
  for (NodeId node = 0; node < topology_->node_count(); ++node) {
    if (!topology_->alive(node)) continue;
    const bool served = std::any_of(
        engines_.begin(), engines_.end(), [node](const auto& engine) {
          return engine->virtual_ring().contains(node);
        });
    if (!served) result.push_back(node);
  }
  return result;
}

double MultiRingCoordinator::coverage() const {
  std::size_t alive = 0;
  for (NodeId n = 0; n < topology_->node_count(); ++n) {
    if (topology_->alive(n)) ++alive;
  }
  if (alive == 0) return 0.0;
  std::size_t served = 0;
  for (const auto& engine : engines_) served += engine->virtual_ring().size();
  return static_cast<double>(served) / static_cast<double>(alive);
}

std::uint64_t MultiRingCoordinator::total_delivered() const {
  std::uint64_t total = 0;
  for (const auto& engine : engines_) {
    total += engine->stats().sink.total_delivered();
  }
  return total;
}

}  // namespace wrt::wrtring
