// phy::within_range, the distance test of Topology::reachable, compares
// dx^2 + dy^2 with range^2 outside a 1e-9 relative margin and calls
// std::hypot only inside it.  It must give std::hypot's answer for every
// input.  These sweeps compare it with std::hypot(dx, dy) <= range
// directly where the two could part: at the boundary, to the last ulp of
// the range, at magnitudes where the squares overflow or underflow, and
// for zero, subnormal, huge, infinite and NaN coordinates and ranges.
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <vector>

#include <gtest/gtest.h>

#include "phy/geometry.hpp"
#include "phy/topology.hpp"
#include "util/rng.hpp"

namespace wrt::phy {
namespace {

using Limits = std::numeric_limits<double>;

bool hypot_within(Vec2 a, Vec2 b, double range) {
  return std::hypot(a.x - b.x, a.y - b.y) <= range;
}

/// A point pair about `range * (1 + eps)` apart, anywhere within a few
/// ranges of the origin, at a random angle; eps spans ulp-sized to
/// far-outside-the-margin offsets, either sign.
struct BoundaryCase {
  Vec2 a;
  Vec2 b;
  double range = 0.0;
};

BoundaryCase boundary_case(util::RngStream& rng, double min_exponent,
                           double max_exponent) {
  BoundaryCase c;
  c.range = std::pow(10.0, rng.uniform(min_exponent, max_exponent));
  const double eps = std::pow(10.0, rng.uniform(-18.0, -5.0)) *
                     (rng.bernoulli(0.5) ? 1.0 : -1.0);
  const double d = c.range * (1.0 + eps);
  const double angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
  c.a = {c.range * rng.uniform(-4.0, 4.0), c.range * rng.uniform(-4.0, 4.0)};
  c.b = {c.a.x + d * std::cos(angle), c.a.y + d * std::sin(angle)};
  return c;
}

TEST(WithinRange, MatchesHypotAtTheBoundary) {
  util::RngStream rng(20261018);
  std::size_t checked = 0;
  for (int i = 0; i < 250000; ++i) {
    // Half inside the square path's range band, half across all of double.
    const BoundaryCase c = i % 2 == 0 ? boundary_case(rng, -110.0, 110.0)
                                      : boundary_case(rng, -300.0, 300.0);
    // The drawn range, hypot's own distance, and the doubles either side
    // of it: the comparisons that turn on a single ulp.
    const double h = std::hypot(c.a.x - c.b.x, c.a.y - c.b.y);
    for (const double range : {c.range, h, std::nextafter(h, 0.0),
                               std::nextafter(h, Limits::infinity())}) {
      ASSERT_EQ(within_range(c.a, c.b, range), hypot_within(c.a, c.b, range))
          << "a=(" << c.a.x << ", " << c.a.y << ") b=(" << c.b.x << ", "
          << c.b.y << ") range=" << range;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 1000000u);
}

TEST(WithinRange, MatchesHypotOnSpecialValues) {
  const double inf = Limits::infinity();
  const double nan = Limits::quiet_NaN();
  const double tiny = Limits::denorm_min();
  const std::vector<double> coordinates = {
      0.0,   -0.0,   tiny,  -tiny, Limits::min(), 1e-170, -1e-160,
      1e-100, 0.5,   -3.0,  1e100, 1e154,         -1e160, 1e200,
      Limits::max(), -Limits::max(), inf, -inf, nan};
  const std::vector<Vec2> others = {{0.0, 0.0},      {1.0, -1.0},
                                    {1e100, 0.0},    {-inf, 0.0},
                                    {nan, nan},      {Limits::min(), tiny},
                                    {1e-100, 1e-100}};
  const std::vector<double> ranges = {
      0.0,   -1.0,  tiny,  Limits::min(), 1e-150, 1e-101,
      std::nextafter(1e-100, 0.0), 1e-100, 1.0, 1e100,
      std::nextafter(1e100, inf), 1e101, 1e154, 1e200, Limits::max(), inf,
      -inf,  nan};
  for (const double x : coordinates) {
    for (const double y : coordinates) {
      for (const Vec2 other : others) {
        for (const double range : ranges) {
          const Vec2 a{x, y};
          ASSERT_EQ(within_range(a, other, range),
                    hypot_within(a, other, range))
              << "a=(" << x << ", " << y << ") b=(" << other.x << ", "
              << other.y << ") range=" << range;
        }
      }
    }
  }
}

TEST(WithinRange, TopologyReachableAgreesWithHypot) {
  // Through the public surface: two nodes at the boundary of the radio
  // range, either way round.
  util::RngStream rng(77);
  for (int i = 0; i < 20000; ++i) {
    const BoundaryCase c = boundary_case(rng, -3.0, 3.0);
    const Topology topology({c.a, c.b}, RadioParams{c.range, 0.0});
    ASSERT_EQ(topology.reachable(0, 1), hypot_within(c.a, c.b, c.range))
        << "case " << i;
    ASSERT_EQ(topology.reachable(1, 0), hypot_within(c.b, c.a, c.range))
        << "case " << i;
  }
}

}  // namespace
}  // namespace wrt::phy
