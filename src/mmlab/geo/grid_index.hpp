// Uniform-grid spatial index for radius queries over point sets.
//
// Used on both the hot path (which cells can a UE hear right now?) and the
// analysis path (cluster cells within R km of each cell, Fig 21).  A hash
// grid with cell size ~= the common query radius gives O(points-in-range)
// queries without any balancing logic.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mmlab/geo/geometry.hpp"

namespace mmlab::geo {

class GridIndex {
 public:
  /// `bucket_m` is the grid pitch; pick close to the typical query radius.
  explicit GridIndex(double bucket_m = 2000.0);

  /// Insert a point with an opaque integer id (caller's index).
  void insert(std::uint32_t id, Point p);

  /// All ids within `radius_m` of `center` (inclusive), unordered.
  std::vector<std::uint32_t> query(Point center, double radius_m) const;

  /// Visit ids within radius without allocating.
  void for_each_in_radius(Point center, double radius_m,
                          const std::function<void(std::uint32_t)>& fn) const;

  /// Statically-dispatched for_each_in_radius for the per-tick hot path:
  /// lambdas whose captures exceed std::function's small-buffer size would
  /// otherwise heap-allocate on every call.  Same visit order.
  template <typename Fn>
  void visit_in_radius(Point center, double radius_m, Fn&& fn) const {
    const Range r = range(center, radius_m);
    const double r2 = radius_m * radius_m;
    for (std::int64_t cx = r.lo_x; cx <= r.hi_x; ++cx) {
      for (std::int64_t cy = r.lo_y; cy <= r.hi_y; ++cy) {
        const auto it = buckets_.find(Key{cx, cy});
        if (it == buckets_.end()) continue;
        for (const auto& [id, p] : it->second) {
          const double dx = p.x - center.x, dy = p.y - center.y;
          if (dx * dx + dy * dy <= r2) fn(id);
        }
      }
    }
  }

  /// One pass serving two radii, inner_m <= outer_m: calls fn(id, inner)
  /// for every id visit_in_radius(center, outer_m) visits, in that order,
  /// where `inner` says whether visit_in_radius(center, inner_m) visits the
  /// id too.  The inner buckets are a sub-rectangle of the outer ones and
  /// both passes walk buckets in the same (cx, cy) order, so the ids flagged
  /// inner come in visit_in_radius(center, inner_m)'s order.
  template <typename Fn>
  void visit_in_radii(Point center, double outer_m, double inner_m,
                      Fn&& fn) const {
    const Range outer = range(center, outer_m);
    const Range inner = range(center, inner_m);
    const double r2 = outer_m * outer_m;
    const double inner_r2 = inner_m * inner_m;
    for (std::int64_t cx = outer.lo_x; cx <= outer.hi_x; ++cx) {
      for (std::int64_t cy = outer.lo_y; cy <= outer.hi_y; ++cy) {
        const auto it = buckets_.find(Key{cx, cy});
        if (it == buckets_.end()) continue;
        const bool in_inner = cx >= inner.lo_x && cx <= inner.hi_x &&
                              cy >= inner.lo_y && cy <= inner.hi_y;
        for (const auto& [id, p] : it->second) {
          const double dx = p.x - center.x, dy = p.y - center.y;
          const double d2 = dx * dx + dy * dy;
          if (d2 <= r2) fn(id, in_inner && d2 <= inner_r2);
        }
      }
    }
  }

  std::size_t size() const { return count_; }

 private:
  struct Key {
    std::int64_t cx, cy;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t h = static_cast<std::uint64_t>(k.cx) * 0x9e3779b97f4a7c15ULL;
      h ^= static_cast<std::uint64_t>(k.cy) + 0x9e3779b97f4a7c15ULL + (h << 6) +
           (h >> 2);
      return static_cast<std::size_t>(h);
    }
  };

  /// Buckets a radius query around `center` has to look at.
  struct Range {
    std::int64_t lo_x, hi_x, lo_y, hi_y;
  };
  Range range(Point center, double radius_m) const {
    return {static_cast<std::int64_t>(
                std::floor((center.x - radius_m) / bucket_m_)),
            static_cast<std::int64_t>(
                std::floor((center.x + radius_m) / bucket_m_)),
            static_cast<std::int64_t>(
                std::floor((center.y - radius_m) / bucket_m_)),
            static_cast<std::int64_t>(
                std::floor((center.y + radius_m) / bucket_m_))};
  }

  Key key_for(Point p) const {
    return {static_cast<std::int64_t>(std::floor(p.x / bucket_m_)),
            static_cast<std::int64_t>(std::floor(p.y / bucket_m_))};
  }

  double bucket_m_;
  std::size_t count_ = 0;
  std::unordered_map<Key, std::vector<std::pair<std::uint32_t, Point>>, KeyHash>
      buckets_;
};

}  // namespace mmlab::geo
