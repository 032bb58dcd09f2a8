// Copyright 2026 The OCTOPUS Reproduction Authors
// Unit tests for the Vec3 / AABB geometric substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/aabb.h"
#include "common/rng.h"
#include "common/vec3.h"

namespace octopus {
namespace {

TEST(Vec3Test, Arithmetic) {
  const Vec3 a(1, 2, 3);
  const Vec3 b(4, 5, 6);
  EXPECT_EQ(a + b, Vec3(5, 7, 9));
  EXPECT_EQ(b - a, Vec3(3, 3, 3));
  EXPECT_EQ(a * 2.0f, Vec3(2, 4, 6));
  EXPECT_EQ(2.0f * a, Vec3(2, 4, 6));
  EXPECT_EQ(a / 2.0f, Vec3(0.5f, 1.0f, 1.5f));
}

TEST(Vec3Test, CompoundAssignment) {
  Vec3 v(1, 1, 1);
  v += Vec3(1, 2, 3);
  EXPECT_EQ(v, Vec3(2, 3, 4));
  v -= Vec3(1, 1, 1);
  EXPECT_EQ(v, Vec3(1, 2, 3));
  v *= 3.0f;
  EXPECT_EQ(v, Vec3(3, 6, 9));
}

TEST(Vec3Test, DotCrossNorm) {
  const Vec3 x(1, 0, 0);
  const Vec3 y(0, 1, 0);
  EXPECT_FLOAT_EQ(x.Dot(y), 0.0f);
  EXPECT_EQ(x.Cross(y), Vec3(0, 0, 1));
  EXPECT_FLOAT_EQ(Vec3(3, 4, 0).Norm(), 5.0f);
  EXPECT_FLOAT_EQ(Vec3(3, 4, 0).SquaredNorm(), 25.0f);
}

TEST(Vec3Test, MinMax) {
  const Vec3 a(1, 5, 3);
  const Vec3 b(2, 4, 3);
  EXPECT_EQ(Vec3::Min(a, b), Vec3(1, 4, 3));
  EXPECT_EQ(Vec3::Max(a, b), Vec3(2, 5, 3));
}

TEST(Vec3Test, Distance) {
  EXPECT_FLOAT_EQ(Distance(Vec3(0, 0, 0), Vec3(1, 2, 2)), 3.0f);
  EXPECT_FLOAT_EQ(SquaredDistance(Vec3(0, 0, 0), Vec3(1, 2, 2)), 9.0f);
}

TEST(AABBTest, IsFiniteRejectsNanAndInfinity) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(AABB(Vec3(0, 0, 0), Vec3(1, 1, 1)).IsFinite());
  EXPECT_TRUE(AABB(Vec3(1, 1, 1), Vec3(0, 0, 0)).IsFinite());  // inverted
  EXPECT_TRUE(AABB().IsFinite());  // empty: +-FLT_MAX, still finite
  EXPECT_FALSE(AABB(Vec3(0, std::nanf(""), 0), Vec3(1, 1, 1)).IsFinite());
  EXPECT_FALSE(AABB(Vec3(0, 0, 0), Vec3(1, 1, inf)).IsFinite());
  EXPECT_FALSE(AABB(Vec3(-inf, 0, 0), Vec3(1, 1, 1)).IsFinite());
}

TEST(AABBTest, DefaultIsEmpty) {
  const AABB box;
  EXPECT_TRUE(box.Empty());
  EXPECT_DOUBLE_EQ(box.Volume(), 0.0);
  EXPECT_FALSE(box.Contains(Vec3(0, 0, 0)));
}

TEST(AABBTest, ExtendFromEmptyYieldsTightBound) {
  AABB box;
  box.Extend(Vec3(1, 2, 3));
  box.Extend(Vec3(-1, 0, 5));
  EXPECT_EQ(box.min, Vec3(-1, 0, 3));
  EXPECT_EQ(box.max, Vec3(1, 2, 5));
  EXPECT_FALSE(box.Empty());
}

TEST(AABBTest, ContainsIsClosed) {
  const AABB box(Vec3(0, 0, 0), Vec3(1, 1, 1));
  EXPECT_TRUE(box.Contains(Vec3(0, 0, 0)));
  EXPECT_TRUE(box.Contains(Vec3(1, 1, 1)));
  EXPECT_TRUE(box.Contains(Vec3(0.5f, 0.5f, 0.5f)));
  EXPECT_FALSE(box.Contains(Vec3(1.0001f, 0.5f, 0.5f)));
  EXPECT_FALSE(box.Contains(Vec3(-0.0001f, 0.5f, 0.5f)));
}

TEST(AABBTest, ContainsBox) {
  const AABB outer(Vec3(0, 0, 0), Vec3(2, 2, 2));
  const AABB inner(Vec3(0.5f, 0.5f, 0.5f), Vec3(1, 1, 1));
  EXPECT_TRUE(outer.Contains(inner));
  EXPECT_FALSE(inner.Contains(outer));
  EXPECT_TRUE(outer.Contains(outer));
}

TEST(AABBTest, Intersects) {
  const AABB a(Vec3(0, 0, 0), Vec3(1, 1, 1));
  const AABB b(Vec3(0.5f, 0.5f, 0.5f), Vec3(2, 2, 2));
  const AABB c(Vec3(1.5f, 1.5f, 1.5f), Vec3(2, 2, 2));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_TRUE(b.Intersects(a));
  EXPECT_FALSE(a.Intersects(c));
  // Touching boxes intersect (closed boxes).
  const AABB d(Vec3(1, 0, 0), Vec3(2, 1, 1));
  EXPECT_TRUE(a.Intersects(d));
}

TEST(AABBTest, VolumeMarginCenter) {
  const AABB box(Vec3(0, 0, 0), Vec3(2, 3, 4));
  EXPECT_DOUBLE_EQ(box.Volume(), 24.0);
  EXPECT_DOUBLE_EQ(box.Margin(), 18.0);
  EXPECT_EQ(box.Center(), Vec3(1, 1.5f, 2));
}

TEST(AABBTest, UnionCoversBoth) {
  const AABB a(Vec3(0, 0, 0), Vec3(1, 1, 1));
  const AABB b(Vec3(2, -1, 0), Vec3(3, 0.5f, 2));
  const AABB u = AABB::Union(a, b);
  EXPECT_TRUE(u.Contains(a));
  EXPECT_TRUE(u.Contains(b));
}

TEST(AABBTest, Inflated) {
  const AABB box(Vec3(0, 0, 0), Vec3(1, 1, 1));
  const AABB big = box.Inflated(0.5f);
  EXPECT_EQ(big.min, Vec3(-0.5f, -0.5f, -0.5f));
  EXPECT_EQ(big.max, Vec3(1.5f, 1.5f, 1.5f));
}

TEST(AABBTest, SquaredDistanceToInsideIsZero) {
  const AABB box(Vec3(0, 0, 0), Vec3(1, 1, 1));
  EXPECT_FLOAT_EQ(box.SquaredDistanceTo(Vec3(0.5f, 0.5f, 0.5f)), 0.0f);
  EXPECT_FLOAT_EQ(box.SquaredDistanceTo(Vec3(0, 0, 0)), 0.0f);  // boundary
}

TEST(AABBTest, SquaredDistanceToOutside) {
  const AABB box(Vec3(0, 0, 0), Vec3(1, 1, 1));
  EXPECT_FLOAT_EQ(box.SquaredDistanceTo(Vec3(2, 0.5f, 0.5f)), 1.0f);
  EXPECT_FLOAT_EQ(box.SquaredDistanceTo(Vec3(2, 2, 0.5f)), 2.0f);
  EXPECT_FLOAT_EQ(box.SquaredDistanceTo(Vec3(-1, -1, -1)), 3.0f);
}

TEST(AABBTest, SquaredDistanceConsistentWithContains) {
  Rng rng(7);
  const AABB box(Vec3(-1, -2, 0), Vec3(1, 0.5f, 3));
  const AABB sample_space(Vec3(-3, -4, -2), Vec3(3, 3, 5));
  for (int i = 0; i < 2000; ++i) {
    const Vec3 p = rng.NextPointIn(sample_space);
    const bool inside = box.Contains(p);
    const float d2 = box.SquaredDistanceTo(p);
    EXPECT_EQ(inside, d2 == 0.0f) << "point " << p << " d2=" << d2;
  }
}

TEST(AABBTest, FromCenterHalfExtent) {
  const AABB box =
      AABB::FromCenterHalfExtent(Vec3(1, 1, 1), Vec3(0.5f, 1, 2));
  EXPECT_EQ(box.min, Vec3(0.5f, 0, -1));
  EXPECT_EQ(box.max, Vec3(1.5f, 2, 3));
}

}  // namespace
}  // namespace octopus
