// Topology::neighbor_table() against the per-node scan it replaces in the
// whole-graph passes: row(i) must equal neighbors(i), order included.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "phy/topology.hpp"
#include "tests/phy/layouts.hpp"

namespace wrt::phy {
namespace {

void expect_rows_equal_neighbors(const Topology& topology,
                                 const std::string& name) {
  const NeighborTable table = topology.neighbor_table();
  ASSERT_EQ(table.node_count(), topology.node_count()) << name;
  for (NodeId node = 0; node < topology.node_count(); ++node) {
    const auto row = table.row(node);
    EXPECT_EQ(std::vector<NodeId>(row.begin(), row.end()),
              topology.neighbors(node))
        << name << " node " << node;
  }
}

TEST(NeighborTable, RowsEqualNeighbors) {
  // The stacked layout holds the duplicate x coordinates: columns of
  // stations sharing an x, some of them co-located.
  for (const layouts::LayoutSpec& spec : layouts::kSharedLayouts) {
    expect_rows_equal_neighbors(layouts::make_layout(spec),
                                layouts::spec_name(spec));
  }
  expect_rows_equal_neighbors(Topology({}, RadioParams{}), "empty");
}

}  // namespace
}  // namespace wrt::phy
