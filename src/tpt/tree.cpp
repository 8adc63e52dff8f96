#include "tpt/tree.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace wrt::tpt {

util::Result<Tree> Tree::build(const phy::Topology& topology, NodeId root) {
  if (root >= topology.node_count() || !topology.alive(root)) {
    return util::Error::invalid_argument("bad tree root");
  }
  Tree tree;
  tree.root_ = root;
  tree.parent_.assign(topology.node_count(), kInvalidNode);
  tree.children_.assign(topology.node_count(), {});

  const phy::NeighborTable table = topology.neighbor_table();
  std::vector<bool> seen(topology.node_count(), false);
  std::queue<NodeId> frontier;
  frontier.push(root);
  seen[root] = true;
  tree.members_.push_back(root);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (const NodeId v : table.row(u)) {
      if (seen[v]) continue;
      seen[v] = true;
      tree.parent_[v] = u;
      tree.children_[u].push_back(v);
      tree.members_.push_back(v);
      frontier.push(v);
    }
  }

  std::size_t alive_count = 0;
  for (NodeId n = 0; n < topology.node_count(); ++n) {
    if (topology.alive(n)) ++alive_count;
  }
  if (tree.members_.size() != alive_count) {
    return util::Error::not_reachable(
        "alive subgraph is not connected; tree covers only part of it");
  }
  return tree;
}

bool Tree::contains(NodeId node) const {
  return std::find(members_.begin(), members_.end(), node) != members_.end();
}

NodeId Tree::parent(NodeId node) const {
  if (node >= parent_.size()) throw std::out_of_range("Tree::parent");
  return parent_[node];
}

const std::vector<NodeId>& Tree::children(NodeId node) const {
  if (node >= children_.size()) throw std::out_of_range("Tree::children");
  return children_[node];
}

void Tree::add_child(NodeId parent, NodeId node) {
  if (!contains(parent)) throw std::invalid_argument("parent not in tree");
  if (contains(node)) throw std::invalid_argument("node already in tree");
  if (node >= parent_.size()) {
    parent_.resize(node + 1, kInvalidNode);
    children_.resize(node + 1);
  }
  parent_[node] = parent;
  children_[parent].push_back(node);
  members_.push_back(node);
}

void Tree::tour_visit(NodeId node, std::vector<NodeId>& tour) const {
  tour.push_back(node);
  for (const NodeId child : children_[node]) {
    tour_visit(child, tour);
    tour.push_back(node);
  }
}

std::vector<NodeId> Tree::euler_tour() const {
  std::vector<NodeId> tour;
  tour.reserve(2 * members_.size());
  tour_visit(root_, tour);
  return tour;
}

std::vector<NodeId> Tree::path_to_root(NodeId node) const {
  std::vector<NodeId> path;
  NodeId current = node;
  while (current != kInvalidNode) {
    path.push_back(current);
    current = parent_[current];
  }
  return path;
}

std::vector<NodeId> Tree::path(NodeId a, NodeId b) const {
  const std::vector<NodeId> up_a = path_to_root(a);
  const std::vector<NodeId> up_b = path_to_root(b);
  // Find the lowest common ancestor by marking a's ancestors.
  std::vector<bool> on_a(parent_.size(), false);
  for (const NodeId n : up_a) on_a[n] = true;
  NodeId lca = kInvalidNode;
  for (const NodeId n : up_b) {
    if (on_a[n]) {
      lca = n;
      break;
    }
  }
  if (lca == kInvalidNode) throw std::invalid_argument("nodes not in one tree");

  std::vector<NodeId> result;
  for (const NodeId n : up_a) {
    result.push_back(n);
    if (n == lca) break;
  }
  std::vector<NodeId> down;
  for (const NodeId n : up_b) {
    if (n == lca) break;
    down.push_back(n);
  }
  std::reverse(down.begin(), down.end());
  result.insert(result.end(), down.begin(), down.end());
  return result;
}

NodeId Tree::next_hop(NodeId from, NodeId to) const {
  const std::vector<NodeId> route = path(from, to);
  if (route.size() < 2) return to;
  return route[1];
}

bool Tree::valid_over(const phy::Topology& topology) const {
  for (const NodeId node : members_) {
    if (!topology.alive(node)) return false;
    if (node == root_) continue;
    if (!topology.reachable(node, parent_[node])) return false;
  }
  return true;
}

}  // namespace wrt::tpt
