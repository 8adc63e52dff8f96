#include "phy/mobility.hpp"

#include <gtest/gtest.h>

namespace wrt::phy {
namespace {

class WaypointTest : public ::testing::Test {
 protected:
  WaypointTest()
      : area_{{0, 0}, {40, 40}},
        topology_(placement::grid(3, 3, 10.0, {5, 5}), RadioParams{15.0, 0.0}),
        model_(area_, params(), 77) {
    model_.bind(topology_);
  }

  static WaypointParams params() {
    WaypointParams p;
    p.leash_radius = 5.0;
    p.pause_mean_s = 1.0;
    p.slot_seconds = 0.01;  // fast slots so movement shows quickly
    return p;
  }

  Rect area_;
  Topology topology_;
  BoundedRandomWaypoint model_;
};

TEST_F(WaypointTest, StaysInsideArea) {
  for (int i = 0; i < 50; ++i) {
    model_.step(topology_, slots_to_ticks(i * 100), slots_to_ticks(100));
    for (NodeId n = 0; n < topology_.node_count(); ++n) {
      EXPECT_TRUE(area_.contains(topology_.position(n)))
          << "node " << n << " escaped at step " << i;
    }
  }
}

TEST_F(WaypointTest, RespectsLeash) {
  std::vector<Vec2> homes;
  for (NodeId n = 0; n < topology_.node_count(); ++n) {
    homes.push_back(topology_.position(n));
  }
  for (int i = 0; i < 50; ++i) {
    model_.step(topology_, slots_to_ticks(i * 100), slots_to_ticks(100));
    for (NodeId n = 0; n < topology_.node_count(); ++n) {
      // Leash 5 m; allow a small numerical margin.
      EXPECT_LE(distance(topology_.position(n), homes[n]), 5.0 + 1e-6);
    }
  }
}

TEST_F(WaypointTest, ActuallyMovesNodes) {
  const Vec2 before = topology_.position(0);
  bool moved = false;
  for (int i = 0; i < 200 && !moved; ++i) {
    model_.step(topology_, slots_to_ticks(i * 100), slots_to_ticks(100));
    moved = distance(topology_.position(0), before) > 0.1;
  }
  EXPECT_TRUE(moved);
}

TEST_F(WaypointTest, DeadNodesDoNotMove) {
  topology_.set_alive(4, false);
  const Vec2 before = topology_.position(4);
  for (int i = 0; i < 20; ++i) {
    model_.step(topology_, slots_to_ticks(i * 100), slots_to_ticks(100));
  }
  EXPECT_EQ(topology_.position(4), before);
}

TEST_F(WaypointTest, LateJoinersAreAdopted) {
  const NodeId added = topology_.add_node({20, 20});
  for (int i = 0; i < 20; ++i) {
    model_.step(topology_, slots_to_ticks(i * 100), slots_to_ticks(100));
    EXPECT_LE(distance(topology_.position(added), {20, 20}), 5.0 + 1e-6);
  }
}

class GaussMarkovTest : public ::testing::Test {
 protected:
  GaussMarkovTest()
      : area_{{0, 0}, {100, 100}},
        topology_(placement::grid(2, 2, 30.0, {20, 20}),
                  RadioParams{50.0, 0.0}),
        model_(area_, params(), 9) {}

  static GaussMarkovParams params() {
    GaussMarkovParams p;
    p.mean_speed = 1.0;
    p.slot_seconds = 0.01;
    return p;
  }

  Rect area_;
  Topology topology_;
  GaussMarkov model_;
};

TEST_F(GaussMarkovTest, StaysInsideArea) {
  for (int i = 0; i < 200; ++i) {
    model_.step(topology_, slots_to_ticks(i * 100), slots_to_ticks(100));
    for (NodeId n = 0; n < topology_.node_count(); ++n) {
      EXPECT_TRUE(area_.contains(topology_.position(n))) << "step " << i;
    }
  }
}

TEST_F(GaussMarkovTest, MovesAtRoughlyMeanSpeed) {
  // Over many 1-second steps, the per-step displacement should be on the
  // order of the mean speed (temporal correlation keeps it coherent).
  Vec2 previous = topology_.position(0);
  double total = 0.0;
  int steps = 0;
  for (int i = 0; i < 100; ++i) {
    model_.step(topology_, slots_to_ticks(i * 100), slots_to_ticks(100));
    const Vec2 current = topology_.position(0);
    total += distance(current, previous);
    previous = current;
    ++steps;
  }
  const double per_second = total / steps;  // 100 slots * 0.01 s = 1 s
  EXPECT_GT(per_second, 0.2);
  EXPECT_LT(per_second, 3.0);
}

TEST_F(GaussMarkovTest, TrajectoriesAreSmooth) {
  // Headings are correlated: consecutive displacement vectors mostly point
  // the same way, unlike a pure random walk.
  Vec2 prev_pos = topology_.position(0);
  Vec2 prev_step{0, 0};
  int aligned = 0, counted = 0;
  for (int i = 0; i < 200; ++i) {
    model_.step(topology_, slots_to_ticks(i * 100), slots_to_ticks(100));
    const Vec2 pos = topology_.position(0);
    const Vec2 step_vec = pos - prev_pos;
    if (prev_step.norm() > 1e-6 && step_vec.norm() > 1e-6) {
      const double dot = prev_step.x * step_vec.x + prev_step.y * step_vec.y;
      if (dot > 0) ++aligned;
      ++counted;
    }
    prev_step = step_vec;
    prev_pos = pos;
  }
  ASSERT_GT(counted, 50);
  EXPECT_GT(static_cast<double>(aligned) / counted, 0.6);
}

TEST_F(GaussMarkovTest, DeadNodesFrozen) {
  topology_.set_alive(1, false);
  const Vec2 before = topology_.position(1);
  for (int i = 0; i < 50; ++i) {
    model_.step(topology_, slots_to_ticks(i * 100), slots_to_ticks(100));
  }
  EXPECT_EQ(topology_.position(1), before);
}

}  // namespace
}  // namespace wrt::phy
