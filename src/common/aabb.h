// Copyright 2026 The OCTOPUS Reproduction Authors
// Axis-aligned bounding box: the query shape of the paper and the bounding
// volume used by all tree indexes.
#ifndef OCTOPUS_COMMON_AABB_H_
#define OCTOPUS_COMMON_AABB_H_

#include <algorithm>
#include <limits>
#include <ostream>

#include "common/vec3.h"

namespace octopus {

/// \brief Axis-aligned box `[min, max]` (closed on both ends).
///
/// Used both as the rectangular range-query region (Sec. I of the paper)
/// and as the bounding volume inside the R-tree family of baselines.
struct AABB {
  Vec3 min;
  Vec3 max;

  /// Default box is *empty*: min = +inf, max = -inf, so that `Extend`
  /// starting from an empty box yields the tight bound of the points fed in.
  constexpr AABB()
      : min(std::numeric_limits<float>::max(),
            std::numeric_limits<float>::max(),
            std::numeric_limits<float>::max()),
        max(std::numeric_limits<float>::lowest(),
            std::numeric_limits<float>::lowest(),
            std::numeric_limits<float>::lowest()) {}
  constexpr AABB(const Vec3& mn, const Vec3& mx) : min(mn), max(mx) {}

  /// Box centered at `c` with half-extent `h` in every axis.
  static constexpr AABB FromCenterHalfExtent(const Vec3& c, const Vec3& h) {
    return AABB(c - h, c + h);
  }

  constexpr bool Empty() const {
    return min.x > max.x || min.y > max.y || min.z > max.z;
  }

  bool IsFinite() const { return min.IsFinite() && max.IsFinite(); }

  constexpr Vec3 Center() const { return (min + max) * 0.5f; }
  constexpr Vec3 Extent() const { return max - min; }

  double Volume() const {
    if (Empty()) return 0.0;
    const Vec3 e = Extent();
    return static_cast<double>(e.x) * e.y * e.z;
  }

  /// Surface-area-like margin used by some R-tree split heuristics.
  double Margin() const {
    if (Empty()) return 0.0;
    const Vec3 e = Extent();
    return 2.0 * (static_cast<double>(e.x) + e.y + e.z);
  }

  constexpr bool Contains(const Vec3& p) const {
    return p.x >= min.x && p.x <= max.x && p.y >= min.y && p.y <= max.y &&
           p.z >= min.z && p.z <= max.z;
  }

  constexpr bool Contains(const AABB& o) const {
    return o.min.x >= min.x && o.max.x <= max.x && o.min.y >= min.y &&
           o.max.y <= max.y && o.min.z >= min.z && o.max.z <= max.z;
  }

  constexpr bool Intersects(const AABB& o) const {
    return min.x <= o.max.x && max.x >= o.min.x && min.y <= o.max.y &&
           max.y >= o.min.y && min.z <= o.max.z && max.z >= o.min.z;
  }

  void Extend(const Vec3& p) {
    min = Vec3::Min(min, p);
    max = Vec3::Max(max, p);
  }

  void Extend(const AABB& o) {
    min = Vec3::Min(min, o.min);
    max = Vec3::Max(max, o.max);
  }

  /// Smallest box covering both inputs.
  static AABB Union(const AABB& a, const AABB& b) {
    AABB r = a;
    r.Extend(b);
    return r;
  }

  /// Grow by `d` in every direction (used by QU-Trade grace windows).
  AABB Inflated(float d) const {
    return AABB(min - Vec3(d, d, d), max + Vec3(d, d, d));
  }

  /// Squared euclidean distance from `p` to this box; 0 if `p` is inside.
  /// This is the `distance(v, q)` of the paper's directed walk.
  float SquaredDistanceTo(const Vec3& p) const {
    const float dx = std::max({min.x - p.x, 0.0f, p.x - max.x});
    const float dy = std::max({min.y - p.y, 0.0f, p.y - max.y});
    const float dz = std::max({min.z - p.z, 0.0f, p.z - max.z});
    return dx * dx + dy * dy + dz * dz;
  }
};

inline std::ostream& operator<<(std::ostream& os, const AABB& b) {
  return os << "[" << b.min << " .. " << b.max << "]";
}

}  // namespace octopus

#endif  // OCTOPUS_COMMON_AABB_H_
