#include <gtest/gtest.h>

#include "mmlab/geo/grid_index.hpp"
#include "mmlab/geo/region.hpp"
#include "mmlab/util/rng.hpp"

#include <algorithm>

namespace mmlab::geo {
namespace {

TEST(Geometry, Distance) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 1}, {1, 1}), 0.0);
}

TEST(Geometry, Lerp) {
  const Point p = lerp({0, 0}, {10, 20}, 0.5);
  EXPECT_DOUBLE_EQ(p.x, 5.0);
  EXPECT_DOUBLE_EQ(p.y, 10.0);
  EXPECT_EQ(lerp({1, 2}, {3, 4}, 0.0), (Point{1, 2}));
  EXPECT_EQ(lerp({1, 2}, {3, 4}, 1.0), (Point{3, 4}));
}

TEST(Geometry, Norm) { EXPECT_DOUBLE_EQ(norm({3, 4}), 5.0); }

TEST(Region, Contains) {
  City city;
  city.origin = {100, 200};
  city.extent_m = 50;
  EXPECT_TRUE(contains(city, {100, 200}));
  EXPECT_TRUE(contains(city, {150, 250}));
  EXPECT_TRUE(contains(city, {125, 225}));
  EXPECT_FALSE(contains(city, {99, 225}));
  EXPECT_FALSE(contains(city, {125, 251}));
}

TEST(GridIndex, RejectsBadBucket) {
  EXPECT_THROW(GridIndex(0.0), std::invalid_argument);
  EXPECT_THROW(GridIndex(-1.0), std::invalid_argument);
}

TEST(GridIndex, EmptyQuery) {
  GridIndex index(100.0);
  EXPECT_TRUE(index.query({0, 0}, 1000.0).empty());
}

TEST(GridIndex, FindsInsertedPoint) {
  GridIndex index(100.0);
  index.insert(7, {50, 50});
  const auto hits = index.query({0, 0}, 100.0);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 7u);
}

TEST(GridIndex, RadiusIsInclusive) {
  GridIndex index(100.0);
  index.insert(1, {100, 0});
  EXPECT_EQ(index.query({0, 0}, 100.0).size(), 1u);
  EXPECT_EQ(index.query({0, 0}, 99.999).size(), 0u);
}

TEST(GridIndex, NegativeCoordinates) {
  GridIndex index(50.0);
  index.insert(1, {-120, -75});
  const auto hits = index.query({-100, -80}, 25.0);
  ASSERT_EQ(hits.size(), 1u);
}

class GridIndexPropertySweep : public ::testing::TestWithParam<double> {};

TEST_P(GridIndexPropertySweep, MatchesBruteForce) {
  const double radius = GetParam();
  Rng rng(static_cast<std::uint64_t>(radius * 100));
  GridIndex index(radius);
  std::vector<Point> points;
  for (std::uint32_t i = 0; i < 500; ++i) {
    const Point p{rng.uniform(-5000, 5000), rng.uniform(-5000, 5000)};
    points.push_back(p);
    index.insert(i, p);
  }
  for (int q = 0; q < 20; ++q) {
    const Point center{rng.uniform(-5000, 5000), rng.uniform(-5000, 5000)};
    auto hits = index.query(center, radius);
    std::sort(hits.begin(), hits.end());
    std::vector<std::uint32_t> brute;
    for (std::uint32_t i = 0; i < points.size(); ++i)
      if (distance(points[i], center) <= radius) brute.push_back(i);
    EXPECT_EQ(hits, brute) << "radius " << radius;
  }
}

INSTANTIATE_TEST_SUITE_P(Radii, GridIndexPropertySweep,
                         ::testing::Values(50.0, 200.0, 500.0, 1500.0, 4000.0));

TEST(GridIndex, VisitInRadiiFlagsTheInnerVisitInItsOrder) {
  Rng rng(31);
  for (double bucket : {100.0, 2000.0, 333.3}) {
    GridIndex index(bucket);
    for (std::uint32_t i = 0; i < 3'000; ++i)
      index.insert(i, {rng.uniform(-20'000.0, 20'000.0),
                       rng.uniform(-20'000.0, 20'000.0)});
    for (int q = 0; q < 200; ++q) {
      const Point c{rng.uniform(-21'000.0, 21'000.0),
                    rng.uniform(-21'000.0, 21'000.0)};
      const double outer = rng.uniform(0.0, 8'000.0);
      // Inner radii include the outer one and bucket multiples.
      const double inner = q % 3 == 0   ? outer
                           : q % 3 == 1 ? bucket * static_cast<double>(
                                                       rng.below(4))
                                        : rng.uniform(0.0, outer);
      if (inner > outer) continue;
      std::vector<std::uint32_t> outer_ids, inner_ids, want_outer, want_inner;
      index.visit_in_radii(c, outer, inner, [&](std::uint32_t id, bool in) {
        outer_ids.push_back(id);
        if (in) inner_ids.push_back(id);
      });
      index.visit_in_radius(c, outer,
                            [&](std::uint32_t id) { want_outer.push_back(id); });
      index.visit_in_radius(c, inner,
                            [&](std::uint32_t id) { want_inner.push_back(id); });
      ASSERT_EQ(outer_ids, want_outer);
      ASSERT_EQ(inner_ids, want_inner);
    }
  }
}

TEST(GridIndex, ForEachVisitsAll) {
  GridIndex index(100.0);
  for (std::uint32_t i = 0; i < 10; ++i)
    index.insert(i, {static_cast<double>(i), 0.0});
  std::size_t visited = 0;
  index.for_each_in_radius({5, 0}, 100.0, [&](std::uint32_t) { ++visited; });
  EXPECT_EQ(visited, 10u);
  EXPECT_EQ(index.size(), 10u);
}

}  // namespace
}  // namespace mmlab::geo
