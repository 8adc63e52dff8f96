// Mobility models.
//
// WRT-Ring (like TPT) targets indoor scenarios "in which terminals have low
// mobility and limited movement space" (Section 1).  BoundedRandomWaypoint
// confines each node to a small disc around its home position and moves it
// at pedestrian speed, so the connectivity graph changes slowly — exactly
// the regime the join/leave/recovery machinery is designed for.  A static
// run passes no mobility model at all.
#pragma once

#include <vector>

#include "phy/topology.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace wrt::phy {

/// Interface: advances node positions from `now` to `now + dt`.
class MobilityModel {
 public:
  virtual ~MobilityModel() = default;
  virtual void step(Topology& topology, Tick now, Tick dt) = 0;
};

struct WaypointParams {
  double speed_min = 0.3;   ///< m/s — slow walk
  double speed_max = 1.5;   ///< m/s
  double pause_mean_s = 20.0;
  double leash_radius = 8.0;  ///< max distance from the home position (m)
  double slot_seconds = 1e-3; ///< wall-clock length of one MAC slot
};

struct GaussMarkovParams {
  double mean_speed = 0.8;     ///< m/s
  double alpha = 0.85;         ///< memory: 1 = straight line, 0 = Brownian
  double speed_sigma = 0.3;    ///< randomness injected per step
  double heading_sigma = 0.5;  ///< radians
  double step_seconds = 1.0;   ///< integration step
  double slot_seconds = 1e-3;
};

/// Gauss-Markov mobility: speed and heading evolve as mean-reverting AR(1)
/// processes, giving smooth, temporally correlated trajectories (no sharp
/// waypoint turns).  Nodes reflect off the area boundary.  The standard
/// alternative to random waypoint for evaluating topology-maintenance
/// protocols.
class GaussMarkov final : public MobilityModel {
 public:
  GaussMarkov(Rect area, GaussMarkovParams params, std::uint64_t seed);

  void step(Topology& topology, Tick now, Tick dt) override;

 private:
  struct NodeState {
    double speed = 0.0;
    double heading = 0.0;
    bool initialised = false;
  };

  Rect area_;
  GaussMarkovParams params_;
  std::uint64_t seed_;
  std::vector<NodeState> states_;
};

/// Random waypoint with a per-node leash: each node draws destinations
/// uniformly inside the intersection of the area and a disc around its home
/// position, walks there, pauses, repeats.
class BoundedRandomWaypoint final : public MobilityModel {
 public:
  BoundedRandomWaypoint(Rect area, WaypointParams params, std::uint64_t seed);

  /// Must be called once positions are known; records home positions.
  void bind(const Topology& topology);

  void step(Topology& topology, Tick now, Tick dt) override;

 private:
  struct NodeState {
    Vec2 home;
    Vec2 target;
    double speed = 0.0;      // m/s; 0 while paused
    double pause_left = 0.0; // seconds
    bool bound = false;
  };

  void pick_new_target(NodeState& state, util::RngStream& rng);

  Rect area_;
  WaypointParams params_;
  std::uint64_t seed_;
  std::vector<NodeState> states_;
};

}  // namespace wrt::phy
