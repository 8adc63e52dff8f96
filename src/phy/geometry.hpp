// 2-D geometry for indoor node placement.
#pragma once

#include <cmath>

namespace wrt::phy {

struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  friend constexpr Vec2 operator+(Vec2 a, Vec2 b) noexcept {
    return {a.x + b.x, a.y + b.y};
  }
  friend constexpr Vec2 operator-(Vec2 a, Vec2 b) noexcept {
    return {a.x - b.x, a.y - b.y};
  }
  friend constexpr Vec2 operator*(Vec2 a, double s) noexcept {
    return {a.x * s, a.y * s};
  }
  friend constexpr bool operator==(Vec2 a, Vec2 b) noexcept {
    return a.x == b.x && a.y == b.y;
  }

  [[nodiscard]] double norm() const noexcept { return std::hypot(x, y); }
};

[[nodiscard]] inline double distance(Vec2 a, Vec2 b) noexcept {
  return (a - b).norm();
}

/// distance(a, b) <= range, for every input.  For a range in
/// [1e-100, 1e100] it compares dx^2 + dy^2 with range^2 whenever the two
/// differ by more than a 1e-9 relative margin, which dwarfs their rounding
/// error and that of std::hypot; only inside the margin, and for any other
/// range (zero, subnormal, huge, infinite, NaN), does it call std::hypot.
[[nodiscard]] inline bool within_range(Vec2 a, Vec2 b, double range) noexcept {
  const Vec2 d = a - b;
  if (range >= 1e-100 && range <= 1e100) {
    const double d2 = d.x * d.x + d.y * d.y;
    const double r2 = range * range;
    if (d2 < r2 * (1.0 - 1e-9)) return true;
    if (d2 > r2 * (1.0 + 1e-9)) return false;
  }
  return d.norm() <= range;
}

/// Axis-aligned rectangle, used as the movement area ("the room").
struct Rect {
  Vec2 lo;
  Vec2 hi;

  [[nodiscard]] constexpr bool contains(Vec2 p) const noexcept {
    return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y;
  }
  /// Clamps a point into the rectangle.
  [[nodiscard]] Vec2 clamp(Vec2 p) const noexcept;
};

}  // namespace wrt::phy
