#include "common/geometry.h"

#include <gtest/gtest.h>

namespace comove {
namespace {

TEST(Distance, L1Basics) {
  EXPECT_DOUBLE_EQ(L1Distance({0, 0}, {3, 4}), 7.0);
  EXPECT_DOUBLE_EQ(L1Distance({-1, -1}, {1, 1}), 4.0);
  EXPECT_DOUBLE_EQ(L1Distance({2, 5}, {2, 5}), 0.0);
}

TEST(Distance, L2Basics) {
  EXPECT_DOUBLE_EQ(L2Distance({0, 0}, {3, 4}), 5.0);
}

TEST(Distance, L1IsSymmetric) {
  const Point a{1.5, -2.25};
  const Point b{-4.0, 7.5};
  EXPECT_DOUBLE_EQ(L1Distance(a, b), L1Distance(b, a));
}

TEST(Distance, WithinDistanceBoundaryIsInclusive) {
  // The shared join predicate: distance == eps stays inside, for both
  // metrics (Definition 5's RJ is a closed ball). Exact cases so no
  // rounding can blur the boundary.
  const Point o{0, 0};
  EXPECT_TRUE(WithinDistance(DistanceMetric::kL2, o, {3, 4}, 5.0));
  EXPECT_FALSE(WithinDistance(DistanceMetric::kL2, o, {3, 4}, 4.999));
  EXPECT_TRUE(WithinDistance(DistanceMetric::kL1, o, {3, 4}, 7.0));
  EXPECT_FALSE(WithinDistance(DistanceMetric::kL1, o, {3, 4}, 6.999));
  EXPECT_TRUE(WithinDistance(DistanceMetric::kL1, o, {0.6, 0.4}, 1.0));
  // L1 is not Chebyshev: inside the square but outside the diamond.
  EXPECT_FALSE(WithinDistance(DistanceMetric::kL1, o, {0.9, 0.9}, 1.0));
}

TEST(Distance, WithinDistanceAgreesWithDistanceFunctions) {
  // The squared-L2 form must agree with the sqrt form on representative
  // points (it is the same comparison up to monotone squaring).
  const Point a{1.25, -3.5};
  for (const Point b : {Point{1.25, -3.5}, Point{2.0, 0.0}, Point{-7, 4}}) {
    for (const double eps : {0.1, 3.0, 8.25, 12.0}) {
      EXPECT_EQ(WithinDistance(DistanceMetric::kL2, a, b, eps),
                L2Distance(a, b) <= eps);
      EXPECT_EQ(WithinDistance(DistanceMetric::kL1, a, b, eps),
                L1Distance(a, b) <= eps);
    }
  }
}

TEST(Rect, EmptyRect) {
  const Rect e = Rect::Empty();
  EXPECT_TRUE(e.IsEmpty());
  EXPECT_DOUBLE_EQ(e.Area(), 0.0);
  EXPECT_FALSE(e.Contains(Point{0, 0}));
}

TEST(Rect, ExpandFromEmpty) {
  Rect r = Rect::Empty();
  r.ExpandToInclude(Point{2, 3});
  EXPECT_FALSE(r.IsEmpty());
  EXPECT_TRUE(r.Contains(Point{2, 3}));
  EXPECT_DOUBLE_EQ(r.Area(), 0.0);
  r.ExpandToInclude(Point{5, 1});
  EXPECT_EQ(r, (Rect{2, 1, 5, 3}));
}

TEST(Rect, ContainsIsClosedOnBoundary) {
  const Rect r{0, 0, 10, 10};
  EXPECT_TRUE(r.Contains(Point{0, 0}));
  EXPECT_TRUE(r.Contains(Point{10, 10}));
  EXPECT_TRUE(r.Contains(Point{0, 10}));
  EXPECT_FALSE(r.Contains(Point{10.0001, 5}));
}

TEST(Rect, IntersectsTouchingEdgesAndCorners) {
  const Rect a{0, 0, 1, 1};
  EXPECT_TRUE(a.Intersects(Rect{1, 1, 2, 2}));  // corner touch
  EXPECT_TRUE(a.Intersects(Rect{1, 0, 2, 1}));  // edge touch
  EXPECT_FALSE(a.Intersects(Rect{1.01, 0, 2, 1}));
}

TEST(Rect, RangeRegionMatchesDefinition10) {
  const Rect r = Rect::RangeRegion(Point{5, 5}, 2);
  EXPECT_EQ(r, (Rect{3, 3, 7, 7}));
}

TEST(Rect, UpperRangeRegionMatchesLemma1) {
  // Lemma 1 verifies only ([x-eps, x+eps], [y, y+eps]).
  const Rect r = Rect::UpperRangeRegion(Point{5, 5}, 2);
  EXPECT_EQ(r, (Rect{3, 5, 7, 7}));
}

TEST(Rect, Center) {
  const Rect r{0, 0, 4, 2};
  EXPECT_EQ(r.Center(), (Point{2, 1}));
}

TEST(Rect, ContainsRect) {
  const Rect outer{0, 0, 10, 10};
  EXPECT_TRUE(outer.Contains(Rect{2, 2, 8, 8}));
  EXPECT_TRUE(outer.Contains(outer));
  EXPECT_FALSE(outer.Contains(Rect{2, 2, 11, 8}));
}

TEST(Rect, L1BallIsInsideRangeRegion) {
  // Every point within L1 distance eps of the centre lies inside the
  // square range region (the square is a correct filter; refinement is an
  // exact distance check).
  const Point c{1, 1};
  const double eps = 0.5;
  const Rect region = Rect::RangeRegion(c, eps);
  for (double dx = -0.5; dx <= 0.5; dx += 0.1) {
    const double dy = eps - std::abs(dx);
    EXPECT_TRUE(region.Contains(Point{c.x + dx, c.y + dy}));
    EXPECT_TRUE(region.Contains(Point{c.x + dx, c.y - dy}));
  }
}

}  // namespace
}  // namespace comove
