// Copyright 2026 The OCTOPUS Reproduction Authors
// 3D vector type used for mesh vertex positions and geometric math.
#ifndef OCTOPUS_COMMON_VEC3_H_
#define OCTOPUS_COMMON_VEC3_H_

#include <cmath>
#include <iosfwd>
#include <ostream>

namespace octopus {

/// \brief A 3-component single-precision vector.
///
/// Vertex positions in simulation meshes are stored as `Vec3` in a
/// struct-of-arrays layout (see `TetraMesh`). Single precision matches what
/// simulation codes typically keep in memory and halves the scan bandwidth
/// relative to doubles; all accumulations that need precision (e.g. cost
/// calibration) are done in double.
struct Vec3 {
  float x = 0.0f;
  float y = 0.0f;
  float z = 0.0f;

  constexpr Vec3() = default;
  constexpr Vec3(float px, float py, float pz) : x(px), y(py), z(pz) {}

  constexpr Vec3 operator+(const Vec3& o) const {
    return Vec3(x + o.x, y + o.y, z + o.z);
  }
  constexpr Vec3 operator-(const Vec3& o) const {
    return Vec3(x - o.x, y - o.y, z - o.z);
  }
  constexpr Vec3 operator*(float s) const { return Vec3(x * s, y * s, z * s); }
  constexpr Vec3 operator/(float s) const { return Vec3(x / s, y / s, z / s); }

  Vec3& operator+=(const Vec3& o) {
    x += o.x;
    y += o.y;
    z += o.z;
    return *this;
  }
  Vec3& operator-=(const Vec3& o) {
    x -= o.x;
    y -= o.y;
    z -= o.z;
    return *this;
  }
  Vec3& operator*=(float s) {
    x *= s;
    y *= s;
    z *= s;
    return *this;
  }

  constexpr bool operator==(const Vec3& o) const {
    return x == o.x && y == o.y && z == o.z;
  }
  constexpr bool operator!=(const Vec3& o) const { return !(*this == o); }

  /// No NaN or infinite component.
  bool IsFinite() const {
    return std::isfinite(x) && std::isfinite(y) && std::isfinite(z);
  }

  constexpr float Dot(const Vec3& o) const {
    return x * o.x + y * o.y + z * o.z;
  }
  constexpr Vec3 Cross(const Vec3& o) const {
    return Vec3(y * o.z - z * o.y, z * o.x - x * o.z, x * o.y - y * o.x);
  }
  constexpr float SquaredNorm() const { return Dot(*this); }
  float Norm() const { return std::sqrt(SquaredNorm()); }

  /// Component-wise minimum.
  static constexpr Vec3 Min(const Vec3& a, const Vec3& b) {
    return Vec3(a.x < b.x ? a.x : b.x, a.y < b.y ? a.y : b.y,
                a.z < b.z ? a.z : b.z);
  }
  /// Component-wise maximum.
  static constexpr Vec3 Max(const Vec3& a, const Vec3& b) {
    return Vec3(a.x > b.x ? a.x : b.x, a.y > b.y ? a.y : b.y,
                a.z > b.z ? a.z : b.z);
  }
};

inline constexpr Vec3 operator*(float s, const Vec3& v) { return v * s; }

inline float SquaredDistance(const Vec3& a, const Vec3& b) {
  return (a - b).SquaredNorm();
}

inline float Distance(const Vec3& a, const Vec3& b) {
  return (a - b).Norm();
}

inline std::ostream& operator<<(std::ostream& os, const Vec3& v) {
  return os << "(" << v.x << ", " << v.y << ", " << v.z << ")";
}

}  // namespace octopus

#endif  // OCTOPUS_COMMON_VEC3_H_
