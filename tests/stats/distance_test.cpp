/**
 * @file
 * Unit tests for Euclidean distance and 2-D geometry.
 */

#include <gtest/gtest.h>

#include "stats/distance.h"
#include "stats/geometry.h"

namespace speclens {
namespace stats {
namespace {

TEST(DistanceTest, Euclidean)
{
    EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
    EXPECT_DOUBLE_EQ(squaredEuclidean({0, 0}, {3, 4}), 25.0);
}

TEST(DistanceTest, NearestToCentroidBreaksOnlyNearTies)
{
    // Row 2 is nearer than row 1 by a relative 1e-12, which is
    // rounding-noise scale: a tie, so the earlier position wins.
    Matrix points{{4.0, 0.0}, {-1.0, 0.0}, {-1.0 + 1e-12, 0.0}};
    double dist = 0.0;
    EXPECT_EQ(nearestToCentroid(points, {0, 1, 2}, &dist), 1u);
    EXPECT_NEAR(dist, 5.0 / 3.0, 1e-9);
    // A real gap is not a tie; positions index @p rows, not points.
    Matrix apart{{4.0, 0.0}, {-1.5, 0.0}, {-1.0, 0.0}};
    EXPECT_EQ(nearestToCentroid(apart, {0, 1, 2}), 2u);
    EXPECT_EQ(nearestToCentroid(apart, {2, 1, 0}), 0u);
    EXPECT_EQ(nearestToCentroid(apart, {1}), 0u);
    EXPECT_THROW(nearestToCentroid(apart, {}), std::invalid_argument);
}

TEST(DistanceTest, LengthMismatchThrows)
{
    EXPECT_THROW(distance({1}, {1, 2}), std::invalid_argument);
    EXPECT_THROW(squaredEuclidean({1}, {1, 2}), std::invalid_argument);
}

TEST(DistanceTest, MetricAxioms)
{
    std::vector<double> a{1, 2, 3}, b{-1, 0, 5}, c{2, 2, 2};
    EXPECT_DOUBLE_EQ(distance(a, a), 0.0);
    EXPECT_DOUBLE_EQ(distance(a, b), distance(b, a));
    EXPECT_LE(distance(a, c), distance(a, b) + distance(b, c));
}

TEST(DistanceTest, PairwiseMatrix)
{
    Matrix points{{0, 0}, {3, 4}, {0, 8}};
    Matrix d = pairwiseDistances(points);
    EXPECT_DOUBLE_EQ(d(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(d(0, 1), 5.0);
    EXPECT_DOUBLE_EQ(d(1, 0), 5.0);
    EXPECT_DOUBLE_EQ(d(1, 2), 5.0);
    EXPECT_DOUBLE_EQ(d(0, 2), 8.0);
}

TEST(GeometryTest, ConvexHullOfSquare)
{
    // Interior point must be dropped.
    std::vector<Point2> points{{0, 0}, {2, 0}, {2, 2}, {0, 2}, {1, 1}};
    auto hull = convexHull(points);
    EXPECT_EQ(hull.size(), 4u);
    EXPECT_NEAR(polygonArea(hull), 4.0, 1e-12);
}

TEST(GeometryTest, DegenerateHulls)
{
    EXPECT_TRUE(convexHull({}).empty());
    EXPECT_EQ(convexHull({{1, 1}}).size(), 1u);
    // Collinear points collapse to the extreme pair.
    auto hull = convexHull({{0, 0}, {1, 1}, {2, 2}, {3, 3}});
    EXPECT_LE(hull.size(), 2u);
    EXPECT_DOUBLE_EQ(hullArea({{0, 0}, {1, 1}, {2, 2}}), 0.0);
}

TEST(GeometryTest, HullArea)
{
    std::vector<Point2> triangle{{0, 0}, {4, 0}, {0, 3}};
    EXPECT_NEAR(hullArea(triangle), 6.0, 1e-12);
}

TEST(GeometryTest, PointInConvexPolygon)
{
    auto hull = convexHull({{0, 0}, {4, 0}, {4, 4}, {0, 4}});
    EXPECT_TRUE(pointInConvexPolygon({2, 2}, hull));
    EXPECT_TRUE(pointInConvexPolygon({0, 0}, hull));  // vertex
    EXPECT_TRUE(pointInConvexPolygon({2, 0}, hull));  // edge
    EXPECT_FALSE(pointInConvexPolygon({5, 2}, hull));
    EXPECT_FALSE(pointInConvexPolygon({-0.1, 2}, hull));
}

TEST(GeometryTest, PointAgainstDegenerateHulls)
{
    EXPECT_FALSE(pointInConvexPolygon({0, 0}, {}));
    EXPECT_TRUE(pointInConvexPolygon({1, 1}, {{1, 1}}));
    EXPECT_FALSE(pointInConvexPolygon({2, 1}, {{1, 1}}));
    std::vector<Point2> segment{{0, 0}, {2, 2}};
    EXPECT_TRUE(pointInConvexPolygon({1, 1}, segment));
    EXPECT_FALSE(pointInConvexPolygon({1, 0}, segment));
}

} // namespace
} // namespace stats
} // namespace speclens
