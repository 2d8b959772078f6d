#ifndef COMOVE_COMMON_GEOMETRY_H_
#define COMOVE_COMMON_GEOMETRY_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>

/// \file
/// Planar geometry primitives. The paper (§3.3) measures proximity with the
/// L1 norm, so a range query with radius eps is an axis-aligned square of
/// side 2*eps; rectangles below are closed on all sides.

namespace comove {

/// A 2-D location.
struct Point {
  double x = 0.0;
  double y = 0.0;

  friend bool operator==(const Point& a, const Point& b) {
    return a.x == b.x && a.y == b.y;
  }
};

/// L1 (Manhattan) distance, the paper's distance function.
inline double L1Distance(const Point& a, const Point& b) {
  return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

/// L2 (Euclidean) distance; provided because the library supports swapping
/// distance functions (the paper notes other metrics are easy to support).
inline double L2Distance(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

/// Selectable distance function. L1 is the paper's choice (§3.3); every
/// range predicate in the library accepts either metric. Both metrics'
/// eps-balls are contained in the square range region, so the grid/R-tree
/// filtering logic (including Lemma 1) is metric-independent and only the
/// final refinement test changes.
enum class DistanceMetric : std::uint8_t { kL1, kL2 };

/// Distance under the chosen metric.
inline double Distance(DistanceMetric metric, const Point& a,
                       const Point& b) {
  return metric == DistanceMetric::kL1 ? L1Distance(a, b)
                                       : L2Distance(a, b);
}

/// Printable metric name ("L1" / "L2").
inline const char* DistanceMetricName(DistanceMetric metric) {
  return metric == DistanceMetric::kL1 ? "L1" : "L2";
}

/// The range predicate dist(a, b) <= eps (closed ball, Definition 10) —
/// the refinement test of every join kernel. For L2 it compares squared
/// distances, which avoids a sqrt per candidate pair and is exact for the
/// boundary: dist == eps stays inside under both metrics because sqrt and
/// squaring are monotone (x*x <= e*e iff x <= e for non-negative x, and
/// IEEE sqrt is correctly rounded, so equal squares compare equal).
inline bool WithinDistance(DistanceMetric metric, const Point& a,
                           const Point& b, double eps) {
  if (metric == DistanceMetric::kL1) return L1Distance(a, b) <= eps;
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy <= eps * eps;
}

/// A closed axis-aligned rectangle [min_x, max_x] x [min_y, max_y].
struct Rect {
  double min_x = 0.0;
  double min_y = 0.0;
  double max_x = 0.0;
  double max_y = 0.0;

  /// An "empty" rectangle that expands to its first added point.
  static Rect Empty() {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    return Rect{kInf, kInf, -kInf, -kInf};
  }

  /// The square of side 2*eps centred at p: the L1 range region of a range
  /// query RQ(p, eps) (Definition 10).
  static Rect RangeRegion(const Point& p, double eps) {
    return Rect{p.x - eps, p.y - eps, p.x + eps, p.y + eps};
  }

  /// The *upper half* of the range region, ([x-eps, x+eps], [y, y+eps]),
  /// used by Lemma 1 to halve replication during the range join.
  static Rect UpperRangeRegion(const Point& p, double eps) {
    return Rect{p.x - eps, p.y, p.x + eps, p.y + eps};
  }

  static Rect FromPoint(const Point& p) { return Rect{p.x, p.y, p.x, p.y}; }

  bool IsEmpty() const { return min_x > max_x || min_y > max_y; }

  bool Contains(const Point& p) const {
    return p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y;
  }

  bool Contains(const Rect& r) const {
    return r.min_x >= min_x && r.max_x <= max_x && r.min_y >= min_y &&
           r.max_y <= max_y;
  }

  bool Intersects(const Rect& r) const {
    return !(r.min_x > max_x || r.max_x < min_x || r.min_y > max_y ||
             r.max_y < min_y);
  }

  /// Grows this rectangle to cover `r`.
  void ExpandToInclude(const Rect& r) {
    min_x = std::min(min_x, r.min_x);
    min_y = std::min(min_y, r.min_y);
    max_x = std::max(max_x, r.max_x);
    max_y = std::max(max_y, r.max_y);
  }

  void ExpandToInclude(const Point& p) { ExpandToInclude(FromPoint(p)); }

  double Width() const { return IsEmpty() ? 0.0 : max_x - min_x; }
  double Height() const { return IsEmpty() ? 0.0 : max_y - min_y; }
  double Area() const { return Width() * Height(); }

  Point Center() const {
    return Point{(min_x + max_x) / 2.0, (min_y + max_y) / 2.0};
  }

  friend bool operator==(const Rect& a, const Rect& b) {
    return a.min_x == b.min_x && a.min_y == b.min_y && a.max_x == b.max_x &&
           a.max_y == b.max_y;
  }
};

inline std::ostream& operator<<(std::ostream& os, const Point& p) {
  return os << "(" << p.x << ", " << p.y << ")";
}

inline std::ostream& operator<<(std::ostream& os, const Rect& r) {
  return os << "[" << r.min_x << "," << r.max_x << "]x[" << r.min_y << ","
            << r.max_y << "]";
}

}  // namespace comove

#endif  // COMOVE_COMMON_GEOMETRY_H_
