// Copyright 2026 The OCTOPUS Reproduction Authors
// Tests for the model-driven adaptive executor (paper Sec. VI-B /
// VIII-B: use Eq. 6 to decide when OCTOPUS beats the linear scan).
#include <gtest/gtest.h>

#include "mesh/generators/datasets.h"
#include "mesh/generators/grid_generator.h"
#include "octopus/planner.h"
#include "sim/random_deformer.h"
#include "test_util.h"

namespace octopus {
namespace {

using testing::BruteForceRangeQuery;
using testing::Sorted;

TetraMesh MakeBox(int n) {
  return GenerateBoxMesh(n, n, n, AABB(Vec3(0, 0, 0), Vec3(1, 1, 1)))
      .MoveValue();
}

// Routing tests run on injected constants (the paper's CS and CR, with
// CP = CS), so the break-even is a pure function of the mesh: routing
// never depends on how busy the machine was while calibrating.
AdaptiveExecutor::Options InjectedConstants() {
  AdaptiveExecutor::Options options;
  options.cost_constants =
      CostConstants{.cs_seconds = 6.6e-9, .cr_seconds = 2.7e-8};
  return options;
}

TEST(PlannerTest, BreakEvenIsCalibrated) {
  // The basin slab has S ~ 0.15: OCTOPUS wins small queries there, so
  // the Eq. 6 threshold must land in (0, 1).
  const TetraMesh mesh =
      MakeEarthquakeMesh(EarthquakeResolution::kSF1, 0.3).MoveValue();
  AdaptiveExecutor adaptive;
  adaptive.Build(mesh);
  EXPECT_GT(adaptive.break_even_selectivity(), 0.0);
  EXPECT_LT(adaptive.break_even_selectivity(), 1.0);
}

TEST(PlannerTest, AlwaysScanWhenProbeCannotWin) {
  // A tiny box mesh is ~1/3 surface: with our calibrated gather constant
  // the probe alone can exceed a scan, Eq. 6 goes non-positive, and the
  // planner must route EVERYTHING to the scan — the model working as
  // intended, not a failure.
  const TetraMesh mesh = MakeBox(10);
  AdaptiveExecutor adaptive;
  adaptive.Build(mesh);
  if (adaptive.break_even_selectivity() <= 0.0) {
    std::vector<VertexId> out;
    const AABB tiny(Vec3(0.45f, 0.45f, 0.45f), Vec3(0.55f, 0.55f, 0.55f));
    adaptive.RangeQuery(mesh, tiny, &out);
    EXPECT_EQ(adaptive.queries_routed_to_scan(), 1u);
    EXPECT_EQ(Sorted(out), BruteForceRangeQuery(mesh, tiny));
  }
}

TEST(PlannerTest, RoutesSmallQueriesToOctopusLargeToScan) {
  const TetraMesh mesh =
      MakeEarthquakeMesh(EarthquakeResolution::kSF1, 0.3).MoveValue();
  AdaptiveExecutor adaptive(InjectedConstants());
  adaptive.Build(mesh);
  std::vector<VertexId> out;

  // Tiny query: well below any plausible break-even.
  const AABB tiny(Vec3(0.45f, 0.45f, 0.45f), Vec3(0.55f, 0.55f, 0.55f));
  out.clear();
  adaptive.RangeQuery(mesh, tiny, &out);
  EXPECT_EQ(adaptive.queries_routed_to_octopus(), 1u);
  EXPECT_EQ(adaptive.queries_routed_to_scan(), 0u);

  // Whole-mesh query: selectivity ~1, far above break-even.
  const AABB all(Vec3(-1, -1, -1), Vec3(2, 2, 2));
  out.clear();
  adaptive.RangeQuery(mesh, all, &out);
  EXPECT_EQ(adaptive.queries_routed_to_octopus(), 1u);
  EXPECT_EQ(adaptive.queries_routed_to_scan(), 1u);
  EXPECT_EQ(out.size(), mesh.num_vertices());
}

TEST(PlannerTest, ExactEitherWay) {
  // Still calibrated, deliberately. Under the injected constants
  // (break-even 0.0152) step 2 query 2 (estimated selectivity 0.0098)
  // routes to OCTOPUS, whose stale-index crawl misses one interior
  // vertex with no neighbour in the box, so this test would fail every
  // run. A calibrated break-even above 0.0098 fails the same way; one
  // below 0.0003 routes nothing to OCTOPUS. Those are the flakes. The
  // miss is OCTOPUS's, not the planner's (ROADMAP item 2); picking
  // constants that keep the query on the scan would hide it.
  TetraMesh mesh =
      MakeEarthquakeMesh(EarthquakeResolution::kSF1, 0.3).MoveValue();
  AdaptiveExecutor adaptive;
  adaptive.Build(mesh);
  RandomDeformer deformer(0.01f);
  deformer.Bind(mesh);
  Rng rng(3);
  for (int step = 1; step <= 4; ++step) {
    deformer.ApplyStep(step, &mesh);
    adaptive.BeforeQueries(mesh);
    for (int q = 0; q < 6; ++q) {
      // Mix of sizes straddling the break-even.
      const float h = rng.NextFloat(0.015f, 0.45f);
      const VertexId center =
          static_cast<VertexId>(rng.NextBelow(mesh.num_vertices()));
      const AABB box = AABB::FromCenterHalfExtent(mesh.position(center),
                                                  Vec3(h, h, h));
      std::vector<VertexId> got;
      adaptive.RangeQuery(mesh, box, &got);
      ASSERT_EQ(Sorted(got), BruteForceRangeQuery(mesh, box))
          << "step " << step << " query " << q;
    }
  }
  // With this size mix, both paths must have been exercised.
  EXPECT_GT(adaptive.queries_routed_to_octopus(), 0u);
  EXPECT_GT(adaptive.queries_routed_to_scan(), 0u);
}

TEST(PlannerTest, FootprintIncludesHistogram) {
  const TetraMesh mesh = MakeBox(8);
  AdaptiveExecutor adaptive;
  adaptive.Build(mesh);
  EXPECT_GT(adaptive.FootprintBytes(),
            adaptive.octopus().FootprintBytes());
}

}  // namespace
}  // namespace octopus
