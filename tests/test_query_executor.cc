// Copyright 2026 The OCTOPUS Reproduction Authors
// Property tests for the OCTOPUS executor: the central invariant is
// exactness — OCTOPUS returns precisely the linear-scan result — across
// mesh types, deformation steps and query shapes. Also covers the
// surface-approximation accuracy trade-off, OCTOPUS-CON, and the batch
// path's grid probe against the paper's scanning probe.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>

#include "common/hilbert.h"
#include "engine/thread_pool.h"
#include "mesh/generators/datasets.h"
#include "mesh/generators/grid_generator.h"
#include "mesh/mesh_io.h"
#include "octopus/octopus_con.h"
#include "octopus/paged_executor.h"
#include "octopus/query_executor.h"
#include "sim/plasticity_deformer.h"
#include "sim/random_deformer.h"
#include "sim/restructurer.h"
#include "sim/wave_deformer.h"
#include "sim/workload.h"
#include "storage/snapshot.h"
#include "test_util.h"

namespace octopus {
namespace {

using testing::BruteForceRangeQuery;
using testing::Sorted;

TetraMesh MakeBox(int n) {
  return GenerateBoxMesh(n, n, n, AABB(Vec3(0, 0, 0), Vec3(1, 1, 1)))
      .MoveValue();
}

// ---------- Exactness properties ----------

TEST(OctopusTest, ExactOnStaticConvexMesh) {
  const TetraMesh mesh = MakeBox(10);
  Octopus octopus;
  octopus.Build(mesh);
  QueryGenerator gen(mesh);
  Rng rng(1);
  for (int i = 0; i < 40; ++i) {
    const AABB q = gen.MakeQuery(&rng, 0.002 + 0.02 * rng.NextDouble());
    std::vector<VertexId> got;
    octopus.RangeQuery(mesh, q, &got);
    ASSERT_EQ(Sorted(got), BruteForceRangeQuery(mesh, q)) << "query " << i;
  }
}

// NOTE on query sizes in the exactness tests: the paper's reachability
// argument is geometric; its discrete edge-path version can miss a vertex
// when the query box is only 1-2 edge lengths wide (a vertex can sit
// inside the box with every neighbor outside). Paper-scale queries return
// thousands of results and are dozens of edge lengths wide, so the tests
// use selectivities that keep queries comfortably above that regime
// (>= ~100 results per query). See DESIGN.md "Correctness invariants".

TEST(OctopusTest, ExactOnNonConvexNeuroMeshUnderDeformation) {
  // The headline property: exact results on a deforming, non-convex,
  // disconnected (two-cell) mesh with NO maintenance between steps.
  TetraMesh mesh = MakeNeuroMesh(0, 0.4).MoveValue();
  Octopus octopus;
  octopus.Build(mesh);
  PlasticityDeformer deformer(0.3f * EstimateMeanEdgeLength(mesh));
  deformer.Bind(mesh);
  QueryGenerator gen(mesh);
  Rng rng(2);
  for (int step = 1; step <= 8; ++step) {
    deformer.ApplyStep(step, &mesh);
    octopus.BeforeQueries(mesh);  // no-op by design
    for (int q = 0; q < 6; ++q) {
      const AABB box = gen.MakeQuery(&rng, 0.02 + 0.03 * rng.NextDouble());
      std::vector<VertexId> got;
      octopus.RangeQuery(mesh, box, &got);
      ASSERT_EQ(Sorted(got), BruteForceRangeQuery(mesh, box))
          << "step " << step << " query " << q;
    }
  }
}

TEST(OctopusTest, ExactUnderUnpredictableRandomDeformation) {
  TetraMesh mesh = MakeBox(16);
  Octopus octopus;
  octopus.Build(mesh);
  RandomDeformer deformer(0.015f);  // ~1/4 of the grid spacing
  deformer.Bind(mesh);
  QueryGenerator gen(mesh);
  Rng rng(3);
  for (int step = 1; step <= 10; ++step) {
    deformer.ApplyStep(step, &mesh);
    for (int q = 0; q < 4; ++q) {
      const AABB box = gen.MakeQuery(&rng, 0.05);
      std::vector<VertexId> got;
      octopus.RangeQuery(mesh, box, &got);
      ASSERT_EQ(Sorted(got), BruteForceRangeQuery(mesh, box))
          << "step " << step;
    }
  }
}

TEST(OctopusTest, QuerySplitAcrossDisjointComponents) {
  // Paper Fig. 3 scenario: a query that spans two disjoint sub-meshes must
  // return results from both (each contributes its own surface starts).
  auto r = GenerateMaskedGrid(
      6, 6, 7, AABB(Vec3(0, 0, 0), Vec3(1, 1, 1)),
      [](int, int, int k) { return k <= 1 || k >= 5; });  // two slabs
  ASSERT_TRUE(r.ok());
  const TetraMesh& mesh = r.Value();
  Octopus octopus;
  octopus.Build(mesh);
  // A query column crossing the empty gap between the slabs.
  const AABB q(Vec3(0.3f, 0.3f, 0.0f), Vec3(0.7f, 0.7f, 1.0f));
  std::vector<VertexId> got;
  octopus.RangeQuery(mesh, q, &got);
  const auto expected = BruteForceRangeQuery(mesh, q);
  ASSERT_EQ(Sorted(got), expected);
  // Sanity: both slabs contributed (z spans both sides of the gap).
  bool low = false;
  bool high = false;
  for (VertexId v : got) {
    if (mesh.position(v).z < 0.4f) low = true;
    if (mesh.position(v).z > 0.6f) high = true;
  }
  EXPECT_TRUE(low);
  EXPECT_TRUE(high);
}

TEST(OctopusTest, EnclosedQueryUsesDirectedWalk) {
  // A query strictly inside the mesh volume contains no surface vertex:
  // phase 2 must kick in and the result must still be exact.
  const TetraMesh mesh = MakeBox(12);
  Octopus octopus;
  octopus.Build(mesh);
  const AABB q(Vec3(0.4f, 0.4f, 0.4f), Vec3(0.6f, 0.6f, 0.6f));
  std::vector<VertexId> got;
  octopus.RangeQuery(mesh, q, &got);
  EXPECT_EQ(Sorted(got), BruteForceRangeQuery(mesh, q));
  EXPECT_EQ(octopus.stats().walk_invocations, 1u);
  EXPECT_GT(octopus.stats().walk_vertices, 0u);
}

TEST(OctopusTest, EmptyQueryOutsideMesh) {
  const TetraMesh mesh = MakeBox(6);
  Octopus octopus;
  octopus.Build(mesh);
  const AABB q(Vec3(3, 3, 3), Vec3(4, 4, 4));
  std::vector<VertexId> got;
  octopus.RangeQuery(mesh, q, &got);
  EXPECT_TRUE(got.empty());
}

TEST(OctopusTest, WholeDomainQueryReturnsEverything) {
  const TetraMesh mesh = MakeNeuroMesh(0, 0.02).MoveValue();
  Octopus octopus;
  octopus.Build(mesh);
  AABB everything = mesh.ComputeBounds();
  everything = everything.Inflated(0.1f);
  std::vector<VertexId> got;
  octopus.RangeQuery(mesh, everything, &got);
  EXPECT_EQ(got.size(), mesh.num_vertices());
}

TEST(OctopusTest, ExactAfterRestructuringWithIncrementalMaintenance) {
  TetraMesh mesh = MakeBox(10);
  Octopus octopus(OctopusOptions{.support_restructuring = true});
  octopus.Build(mesh);
  Rng rng(7);
  QueryGenerator gen(mesh);
  for (int round = 0; round < 4; ++round) {
    // Interior refinement.
    auto split = SplitTetAtCentroid(
        &mesh, static_cast<TetId>(rng.NextBelow(mesh.num_tetrahedra())));
    ASSERT_TRUE(split.ok());
    octopus.OnRestructure(mesh, split.Value());
    // Surface growth.
    const SurfaceInfo info = ExtractSurface(mesh);
    const FaceKey face =
        info.surface_faces[rng.NextBelow(info.surface_faces.size())];
    const Vec3 centroid = (mesh.position(face[0]) + mesh.position(face[1]) +
                           mesh.position(face[2])) /
                          3.0f;
    const Vec3 outward = centroid - Vec3(0.5f, 0.5f, 0.5f);
    auto grow = AddTetOnSurfaceFace(&mesh, face, centroid + outward * 0.3f);
    ASSERT_TRUE(grow.ok());
    octopus.OnRestructure(mesh, grow.Value());

    for (int q = 0; q < 5; ++q) {
      const AABB box = gen.MakeQuery(&rng, 0.08 + 0.08 * rng.NextDouble());
      std::vector<VertexId> got;
      octopus.RangeQuery(mesh, box, &got);
      ASSERT_EQ(Sorted(got), BruteForceRangeQuery(mesh, box))
          << "round " << round << " query " << q;
    }
  }
}

// ---------- Phase statistics & footprint ----------

TEST(OctopusTest, StatsAccumulateAcrossQueries) {
  const TetraMesh mesh = MakeBox(8);
  Octopus octopus;
  octopus.Build(mesh);
  QueryGenerator gen(mesh);
  Rng rng(8);
  for (int i = 0; i < 10; ++i) {
    std::vector<VertexId> got;
    octopus.RangeQuery(mesh, gen.MakeQuery(&rng, 0.01), &got);
  }
  const PhaseStats& s = octopus.stats();
  EXPECT_EQ(s.queries, 10u);
  EXPECT_EQ(s.probed_vertices,
            10u * octopus.surface_index().num_surface_vertices());
  EXPECT_GT(s.probe_nanos, 0);
  EXPECT_GT(s.crawl_edges, 0u);
  EXPECT_GT(s.result_vertices, 0u);
  octopus.ResetStats();
  EXPECT_EQ(octopus.stats().queries, 0u);
}

TEST(OctopusTest, FootprintIncludesSurfaceIndexAndScratch) {
  const TetraMesh mesh = MakeBox(8);
  Octopus octopus;
  octopus.Build(mesh);
  EXPECT_GE(octopus.FootprintBytes(),
            octopus.surface_index().FootprintBytes());
  // Far below the mesh itself (the whole point of Fig. 6(b)).
  EXPECT_LT(octopus.FootprintBytes(), mesh.MemoryBytes());
}

// ---------- Surface approximation (Sec. IV-H2) ----------

class ApproximationTest : public ::testing::TestWithParam<double> {};

TEST_P(ApproximationTest, AccuracyDegradesGracefully) {
  TetraMesh mesh = MakeNeuroMesh(1, 0.05).MoveValue();
  const double fraction = GetParam();
  Octopus exact;
  exact.Build(mesh);
  Octopus approx(OctopusOptions{.surface_sample_fraction = fraction});
  approx.Build(mesh);

  QueryGenerator gen(mesh);
  Rng rng(11);
  size_t exact_total = 0;
  size_t approx_total = 0;
  for (int i = 0; i < 15; ++i) {
    const AABB q = gen.MakeQuery(&rng, 0.01);
    std::vector<VertexId> e;
    std::vector<VertexId> a;
    exact.RangeQuery(mesh, q, &e);
    approx.RangeQuery(mesh, q, &a);
    exact_total += e.size();
    approx_total += a.size();
    // Approximation can only miss results, never invent them.
    std::vector<VertexId> se = Sorted(e);
    for (VertexId v : a) {
      ASSERT_TRUE(std::binary_search(se.begin(), se.end(), v));
    }
  }
  ASSERT_GT(exact_total, 0u);
  const double accuracy = static_cast<double>(approx_total) /
                          static_cast<double>(exact_total);
  if (fraction >= 0.05) {
    // Paper Fig. 12(a): accuracy stays >90% even at strong approximation.
    EXPECT_GT(accuracy, 0.9) << "fraction " << fraction;
  } else {
    EXPECT_GT(accuracy, 0.2) << "fraction " << fraction;
  }
}

INSTANTIATE_TEST_SUITE_P(Fractions, ApproximationTest,
                         ::testing::Values(0.01, 0.05, 0.2, 1.0));

TEST(ApproximationTest, ProbesFewerVertices) {
  const TetraMesh mesh = MakeBox(10);
  Octopus approx(OctopusOptions{.surface_sample_fraction = 0.1});
  approx.Build(mesh);
  std::vector<VertexId> got;
  approx.RangeQuery(mesh, AABB(Vec3(0.2f, 0.2f, 0.2f), Vec3(0.5f, 0.5f, 0.5f)),
                    &got);
  const size_t surface = approx.surface_index().num_surface_vertices();
  EXPECT_LE(approx.stats().probed_vertices, surface / 9);
}

// ---------- OCTOPUS-CON ----------

TEST(OctopusConTest, ExactOnConvexMeshUnderAffineDeformation) {
  TetraMesh mesh =
      MakeEarthquakeMesh(EarthquakeResolution::kSF2, 0.15).MoveValue();
  OctopusCon con;
  con.Build(mesh);
  WaveDeformer deformer(0.02f, 0.01f);
  deformer.Bind(mesh);
  QueryGenerator gen(mesh);
  Rng rng(13);
  for (int step = 1; step <= 8; ++step) {
    deformer.ApplyStep(step, &mesh);  // grid is now stale — by design
    for (int q = 0; q < 5; ++q) {
      const AABB box = gen.MakeQuery(&rng, 0.002 + 0.01 * rng.NextDouble());
      std::vector<VertexId> got;
      con.RangeQuery(mesh, box, &got);
      ASSERT_EQ(Sorted(got), BruteForceRangeQuery(mesh, box))
          << "step " << step << " query " << q;
    }
  }
}

TEST(OctopusConTest, EmptyQueryOutsideMesh) {
  const TetraMesh mesh = MakeBox(6);
  OctopusCon con;
  con.Build(mesh);
  std::vector<VertexId> got;
  con.RangeQuery(mesh, AABB(Vec3(4, 4, 4), Vec3(5, 5, 5)), &got);
  EXPECT_TRUE(got.empty());
}

TEST(OctopusConTest, FinerGridShortensWalk) {
  // Paper Fig. 9(c): finer grids -> fewer vertices visited in the walk.
  const TetraMesh mesh = MakeBox(16);
  QueryGenerator gen(mesh);

  auto walk_cost = [&](int resolution) {
    OctopusCon con(OctopusConOptions{.grid_resolution = resolution});
    con.Build(mesh);
    Rng rng(17);
    for (int i = 0; i < 30; ++i) {
      std::vector<VertexId> got;
      con.RangeQuery(mesh, gen.MakeQuery(&rng, 0.001), &got);
    }
    return con.stats().walk_vertices;
  };
  const size_t coarse = walk_cost(2);    // 8 cells
  const size_t fine = walk_cost(14);     // 2744 cells
  EXPECT_LT(fine, coarse);
}

TEST(OctopusConTest, GridFootprintGrowsWithResolution) {
  const TetraMesh mesh = MakeBox(8);
  OctopusCon coarse(OctopusConOptions{.grid_resolution = 2});
  OctopusCon fine(OctopusConOptions{.grid_resolution = 18});
  coarse.Build(mesh);
  fine.Build(mesh);
  EXPECT_GT(fine.grid().FootprintBytes(), coarse.grid().FootprintBytes());
}

TEST(OctopusConTest, NoMaintenanceHooks) {
  TetraMesh mesh = MakeBox(5);
  OctopusCon con;
  con.Build(mesh);
  const size_t footprint = con.FootprintBytes();
  con.BeforeQueries(mesh);  // must be a no-op
  EXPECT_EQ(con.FootprintBytes(), footprint);
}

// ---------- Batch-shared grid probe vs. the scanning probe ----------

// Positions with no connectivity: enough for Phase 1, which only reads
// the probe-order positions. Every vertex is a surface vertex, so a
// vertex's id is its probe rank.
struct PointCloud {
  std::vector<Vec3> positions;
  std::vector<uint32_t> offsets;
  std::vector<VertexId> surface;

  explicit PointCloud(std::vector<Vec3> p) : positions(std::move(p)) {
    offsets.assign(positions.size() + 1, 0);
    surface.resize(positions.size());
    std::iota(surface.begin(), surface.end(), VertexId{0});
  }
  storage::InMemoryMeshAccessor accessor() const {
    return storage::InMemoryMeshAccessor(
        MeshGraphView{positions, offsets, std::span<const VertexId>()});
  }
};

// The grid must return the scan's hits in the scan's order and, for a
// dry box, the scan's walk start.
template <typename Accessor>
void ExpectGridMatchesScan(Accessor& mesh, std::span<const VertexId> surface,
                           size_t stride, const ProbeGrid& grid,
                           const AABB& box) {
  std::vector<VertexId> scan_starts;
  std::vector<VertexId> grid_starts;
  size_t scanned = 0;
  size_t probed = 0;
  const VertexId scan_closest = internal::ScanSurface(
      mesh, surface, stride, box, &scan_starts, &scanned);
  const VertexId grid_closest =
      grid.Probe(mesh, surface, box, &grid_starts, &probed);
  ASSERT_EQ(grid_starts, scan_starts) << box;
  if (scan_starts.empty()) {
    ASSERT_EQ(grid_closest, scan_closest) << box;
  }
  EXPECT_LE(probed, scanned) << box;
}

TEST(GridProbeTest, MatchesScanOnDeformedNeuroBatches) {
  TetraMesh mesh = MakeNeuroMesh(1, 0.2).MoveValue();
  SurfaceIndex surface_index;
  surface_index.Build(mesh);
  const std::span<const VertexId> surface = surface_index.probe_order();
  RandomDeformer deformer(0.3f * EstimateMeanEdgeLength(mesh), /*seed=*/5);
  deformer.Bind(mesh);
  QueryGenerator gen(mesh);
  Rng rng(13);
  ProbeGrid grid;
  size_t dry = 0;
  size_t total = 0;
  for (int step = 1; step <= 3; ++step) {
    deformer.ApplyStep(step, &mesh);
    storage::InMemoryMeshAccessor accessor(mesh.Graph());
    for (const size_t stride : {size_t{1}, size_t{3}, size_t{10}}) {
      SCOPED_TRACE("step " + std::to_string(step) + " stride " +
                   std::to_string(stride));
      grid.Build(accessor, surface, stride);
      for (const BenchmarkSpec& row : NeuroscienceBenchmarks()) {
        for (const AABB& box :
             gen.MakeQueries(&rng, 48, row.selectivity_min,
                             row.selectivity_max)) {
          ExpectGridMatchesScan(accessor, surface, stride, grid, box);
          std::vector<VertexId> starts;
          size_t probed = 0;
          grid.Probe(accessor, surface, box, &starts, &probed);
          dry += starts.empty();
          ++total;
        }
      }
    }
  }
  // Both probe outcomes are exercised.
  EXPECT_GT(dry, 0u);
  EXPECT_LT(dry, total);
}

TEST(GridProbeTest, BatchPathEqualsSingleQueryPath) {
  // End to end through `ExecuteOctopusBatch`, sequential and sharded:
  // results and every non-timing counter equal the scanning path's;
  // only `probed_vertices` shrinks.
  TetraMesh mesh = MakeNeuroMesh(1, 0.2).MoveValue();
  Octopus octopus;
  octopus.Build(mesh);
  RandomDeformer deformer(0.3f * EstimateMeanEdgeLength(mesh), /*seed=*/9);
  deformer.Bind(mesh);
  deformer.ApplyStep(1, &mesh);
  QueryGenerator gen(mesh);
  Rng rng(17);
  std::vector<AABB> boxes = gen.MakeQueries(&rng, 64, 0.0002, 0.0018);
  // Non-finite boxes take the scan; an inverted box is empty.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  boxes.push_back(AABB(Vec3(-kInf, -kInf, -kInf), Vec3(kInf, kInf, kInf)));
  boxes.push_back(AABB(Vec3(0, 0, std::nanf("")), Vec3(1, 1, 1)));
  boxes.push_back(AABB(boxes[0].max, boxes[0].min));

  std::vector<std::vector<VertexId>> expected;
  for (const AABB& box : boxes) {
    expected.emplace_back();
    octopus.RangeQuery(mesh, box, &expected.back());
  }
  const PhaseStats scan_stats = octopus.stats();
  EXPECT_TRUE(expected[boxes.size() - 1].empty());

  const size_t footprint_before_batch = octopus.FootprintBytes();
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    engine::ThreadPool pool(threads);
    octopus.ResetStats();
    engine::QueryBatchResult results;
    octopus.RangeQueryBatch(mesh, boxes, &results,
                            threads > 1 ? &pool : nullptr);
    for (size_t q = 0; q < boxes.size(); ++q) {
      EXPECT_EQ(results.per_query[q], expected[q]) << "query " << q;
    }
    const PhaseStats& stats = octopus.stats();
    EXPECT_EQ(stats.queries, scan_stats.queries);
    EXPECT_EQ(stats.walk_invocations, scan_stats.walk_invocations);
    EXPECT_EQ(stats.walk_vertices, scan_stats.walk_vertices);
    EXPECT_EQ(stats.crawl_edges, scan_stats.crawl_edges);
    EXPECT_EQ(stats.result_vertices, scan_stats.result_vertices);
    EXPECT_LT(stats.probed_vertices, scan_stats.probed_vertices / 4);
    if (threads == 1) {
      // The grid's buffers stay held between batches and are counted
      // (Fig. 10(b) accounting): 4 bytes of rank per surface vertex,
      // plus the cells.
      EXPECT_GT(octopus.FootprintBytes(),
                footprint_before_batch +
                    4 * octopus.surface_index().num_surface_vertices());
    }
    // A warm batch reuses every buffer: nothing grows.
    const size_t warm_footprint = octopus.FootprintBytes();
    octopus.RangeQueryBatch(mesh, boxes, &results,
                            threads > 1 ? &pool : nullptr);
    EXPECT_EQ(octopus.FootprintBytes(), warm_footprint);
  }
}

TEST(GridProbeTest, BoxesOutsideTheSurfaceBounds) {
  const TetraMesh mesh = MakeNeuroMesh(1, 0.2).MoveValue();
  SurfaceIndex surface_index;
  surface_index.Build(mesh);
  const std::span<const VertexId> surface = surface_index.probe_order();
  storage::InMemoryMeshAccessor accessor(mesh.Graph());
  ProbeGrid grid;
  grid.Build(accessor, surface, 1);
  AABB bounds;
  for (VertexId v : surface) bounds.Extend(mesh.position(v));
  const Vec3 extent = bounds.Extent();
  const Vec3 size = extent * 0.05f;
  auto axis = [](Vec3& v, int a) -> float& {
    return a == 0 ? v.x : a == 1 ? v.y : v.z;
  };
  // Just past, and far past, each of the six faces, then a corner.
  for (const float gap : {0.01f, 0.5f, 3.0f}) {
    for (int a = 0; a < 3; ++a) {
      Vec3 e = extent;
      Vec3 s = size;
      Vec3 low = bounds.min;
      Vec3 high = bounds.max;
      Vec3 past_low = bounds.Center() - size * 0.5f;
      Vec3 past_high = past_low;
      axis(past_low, a) = axis(low, a) - gap * axis(e, a) - axis(s, a);
      axis(past_high, a) = axis(high, a) + gap * axis(e, a);
      ExpectGridMatchesScan(accessor, surface, 1, grid,
                            AABB(past_low, past_low + size));
      ExpectGridMatchesScan(accessor, surface, 1, grid,
                            AABB(past_high, past_high + size));
    }
    const Vec3 corner = bounds.max + extent * gap;
    const AABB corner_box(corner, corner + size);
    ExpectGridMatchesScan(accessor, surface, 1, grid, corner_box);
    // Far out, the distance to the grid's bounds ends the shell search
    // long before it sweeps the whole surface.
    std::vector<VertexId> starts;
    size_t probed = 0;
    grid.Probe(accessor, surface, corner_box, &starts, &probed);
    EXPECT_LT(probed, surface.size() / 4) << "gap " << gap;
  }
}

TEST(GridProbeTest, FlatSurface) {
  Rng rng(23);
  std::vector<Vec3> points;
  for (int i = 0; i < 400; ++i) {
    points.push_back(Vec3(rng.NextFloat(0, 1), rng.NextFloat(0, 1), 0.5f));
  }
  const PointCloud cloud(std::move(points));
  auto accessor = cloud.accessor();
  ProbeGrid grid;
  grid.Build(accessor, cloud.surface, 1);
  EXPECT_EQ(grid.dims()[2], 1);
  EXPECT_GT(grid.dims()[0] * grid.dims()[1], 1);
  for (int i = 0; i < 200; ++i) {
    const Vec3 lo(rng.NextFloat(-0.2f, 1.1f), rng.NextFloat(-0.2f, 1.1f),
                  rng.NextFloat(0.0f, 1.0f));
    const Vec3 size(rng.NextFloat(0, 0.2f), rng.NextFloat(0, 0.2f),
                    rng.NextFloat(0, 0.2f));
    ExpectGridMatchesScan(accessor, cloud.surface, 1, grid,
                          AABB(lo, lo + size));
  }
}

// A cloud whose grid is exactly 10x10x10 unit cells over [0, 10]^3:
// 2000 finite points (1000 cells at 2 per cell) spanning the cube, with
// the `points` given first (ranks 0..) and the padding piled on the far
// corner (10, 10, 10).
PointCloud MakeUnitCellCloud(std::vector<Vec3> points) {
  points.push_back(Vec3(0, 0, 0));
  while (points.size() < 2000) points.push_back(Vec3(10, 10, 10));
  return PointCloud(std::move(points));
}

TEST(GridProbeTest, EqualDistanceTieGoesToTheLowerRank) {
  const Vec3 pad(10, 10, 10);
  // Ranks 1 and 3 lie at exactly the same distance (1.75, dyadic) from
  // the box, in the same shell: the scan keeps rank 1, and so must the
  // grid, whichever of the two cells it reaches first.
  const PointCloud cloud = MakeUnitCellCloud(
      {pad, Vec3(2.5f, 4.5f, 4.5f), pad, Vec3(6.5f, 4.5f, 4.5f)});
  auto accessor = cloud.accessor();
  ProbeGrid grid;
  grid.Build(accessor, cloud.surface, 1);
  ASSERT_EQ(grid.dims(), (std::array<int, 3>{10, 10, 10}));
  const AABB box(Vec3(4.25f, 4.25f, 4.25f), Vec3(4.75f, 4.75f, 4.75f));
  std::vector<VertexId> starts;
  size_t probed = 0;
  EXPECT_EQ(grid.Probe(accessor, cloud.surface, box, &starts, &probed), 1u);
  ExpectGridMatchesScan(accessor, cloud.surface, 1, grid, box);
  // Mirrored: now rank 1 sits in the cell the search reaches last.
  const PointCloud mirrored = MakeUnitCellCloud(
      {pad, Vec3(6.5f, 4.5f, 4.5f), pad, Vec3(2.5f, 4.5f, 4.5f)});
  auto mirrored_accessor = mirrored.accessor();
  grid.Build(mirrored_accessor, mirrored.surface, 1);
  EXPECT_EQ(
      grid.Probe(mirrored_accessor, mirrored.surface, box, &starts, &probed),
      1u);
}

TEST(GridProbeTest, NearestJustPastAShellBoundary) {
  // Box in cell (2,2,2). Shell 1 (cells 1..3) holds a decoy at squared
  // distance 2 * 1.7^2 = 5.78; the true nearest sits in shell 2 at
  // x = 4.05, just past the shell-1/shell-2 boundary, squared distance
  // 1.85^2 = 3.42. After shell 1 nothing outside cells 1..3 is provably
  // farther than the decoy (x >= 4 is only 1.8 away), so the search
  // must open shell 2; a search that stopped one shell early (bounding
  // by cells 0..4, i.e. x >= 5, 2.8 away) would return the decoy.
  const PointCloud cloud = MakeUnitCellCloud(
      {Vec3(3.9f, 3.9f, 2.15f), Vec3(4.05f, 2.15f, 2.15f)});
  auto accessor = cloud.accessor();
  ProbeGrid grid;
  grid.Build(accessor, cloud.surface, 1);
  ASSERT_EQ(grid.dims(), (std::array<int, 3>{10, 10, 10}));
  const AABB box(Vec3(2.1f, 2.1f, 2.1f), Vec3(2.2f, 2.2f, 2.2f));
  std::vector<VertexId> starts;
  size_t probed = 0;
  EXPECT_EQ(grid.Probe(accessor, cloud.surface, box, &starts, &probed), 1u);
  ExpectGridMatchesScan(accessor, cloud.surface, 1, grid, box);
}

TEST(GridProbeTest, EmptySurface) {
  const PointCloud cloud({});
  auto accessor = cloud.accessor();
  ProbeGrid grid;
  grid.Build(accessor, cloud.surface, 1);
  std::vector<VertexId> starts;
  size_t probed = 1;
  EXPECT_EQ(grid.Probe(accessor, cloud.surface,
                       AABB(Vec3(0, 0, 0), Vec3(1, 1, 1)), &starts, &probed),
            kInvalidVertex);
  EXPECT_TRUE(starts.empty());
  EXPECT_EQ(probed, 0u);
}

TEST(GridProbeTest, NonFinitePositionsAreNeverHitsOrStarts) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float nan = std::nanf("");
  Rng rng(29);
  std::vector<Vec3> points;
  for (int i = 0; i < 600; ++i) {
    Vec3 p = rng.NextPointIn(AABB(Vec3(0, 0, 0), Vec3(1, 1, 1)));
    switch (i % 7) {
      case 1: p.x = nan; break;
      case 3: p.y = kInf; break;
      case 5: p.z = -kInf; break;
      default: break;
    }
    points.push_back(p);
  }
  const PointCloud cloud(std::move(points));
  auto accessor = cloud.accessor();
  ProbeGrid grid;
  for (const size_t stride : {size_t{1}, size_t{3}}) {
    grid.Build(accessor, cloud.surface, stride);
    for (int i = 0; i < 200; ++i) {
      const Vec3 lo(rng.NextFloat(-0.5f, 1.2f), rng.NextFloat(-0.5f, 1.2f),
                    rng.NextFloat(-0.5f, 1.2f));
      const float s = rng.NextFloat(0, 0.3f);
      ExpectGridMatchesScan(accessor, cloud.surface, stride, grid,
                            AABB(lo, lo + Vec3(s, s, s)));
    }
  }
  // All positions non-finite: no hit, no walk start.
  const PointCloud none({Vec3(nan, 0, 0), Vec3(kInf, 1, 1)});
  auto none_accessor = none.accessor();
  grid.Build(none_accessor, none.surface, 1);
  ExpectGridMatchesScan(none_accessor, none.surface, 1, grid,
                        AABB(Vec3(0, 0, 0), Vec3(1, 1, 1)));
}

TEST(GridProbeTest, InvertedBoxesFindTheScansWalkStart) {
  const TetraMesh mesh = MakeNeuroMesh(1, 0.2).MoveValue();
  SurfaceIndex surface_index;
  surface_index.Build(mesh);
  const std::span<const VertexId> surface = surface_index.probe_order();
  storage::InMemoryMeshAccessor accessor(mesh.Graph());
  ProbeGrid grid;
  grid.Build(accessor, surface, 1);
  QueryGenerator gen(mesh);
  Rng rng(31);
  for (int i = 0; i < 60; ++i) {
    AABB box = gen.MakeQuery(&rng, 0.0005 + 0.002 * rng.NextDouble());
    // Swap min and max on a nonempty subset of the axes.
    const int mask = 1 + static_cast<int>(rng.NextBelow(7));
    if (mask & 1) std::swap(box.min.x, box.max.x);
    if (mask & 2) std::swap(box.min.y, box.max.y);
    if (mask & 4) std::swap(box.min.z, box.max.z);
    ExpectGridMatchesScan(accessor, surface, 1, grid, box);
  }
}

// ---------- Batch execution order ----------

TEST(BatchOrderTest, HilbertOrderSortsByCenterKeyTiesAndNonFiniteByArrival) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const AABB a(Vec3(0, 0, 0), Vec3(1, 1, 1));
  const AABB b(Vec3(9, 9, 9), Vec3(10, 10, 10));
  const AABB bad(Vec3(0, 0, std::nanf("")), Vec3(1, 1, 1));
  const AABB wide(Vec3(-kInf, 0, 0), Vec3(kInf, 1, 1));
  const HilbertCurve3D curve(10);
  const AABB bounds(Vec3(0, 0, 0), Vec3(10, 10, 10));
  const bool a_first = curve.EncodePoint(a.Center(), bounds) <
                       curve.EncodePoint(b.Center(), bounds);
  // Arrival: b, a, NaN box, b again (an equal key), infinite box.
  const std::vector<AABB> boxes = {b, a, bad, b, wide};
  const std::vector<uint32_t> order = internal::HilbertBatchOrder(boxes);
  const std::vector<uint32_t> expected =
      a_first ? std::vector<uint32_t>{1, 0, 3, 2, 4}
              : std::vector<uint32_t>{0, 3, 1, 2, 4};
  EXPECT_EQ(order, expected);
  EXPECT_TRUE(internal::HilbertBatchOrder({}).empty());
}

// A paged batch that touches many times the pool: the Hilbert order must
// change page costs only. Results and every other counter equal the
// single-query path at 1 and 4 threads, and on one thread priced page
// accesses stay close to the distinct pages the batch touched.
TEST(BatchOrderTest, PagedBatchMuchLargerThanThePool) {
  const TetraMesh mesh = MakeNeuroMesh(1, 0.2).MoveValue();
  const std::string path = ::testing::TempDir() + "/batch_order.oct2";
  ASSERT_TRUE(SaveSnapshot(mesh, path,
                           storage::SnapshotOptions{
                               .page_bytes = 1024,
                               .layout = storage::SnapshotLayout::kHilbert})
                  .ok());
  PagedOctopus::Options options;
  options.pool.pool_bytes = 32 * 1024;
  auto opened = PagedOctopus::Open(path, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  PagedOctopus& paged = *opened.Value();

  QueryGenerator gen(mesh);
  Rng rng(0x0DE4);
  const std::vector<AABB> boxes = gen.MakeQueries(&rng, 88, 0.0018, 0.0018);

  // The single-query (scanning) path, and one-box batches for the probe
  // candidates: the grid's per-query candidates do not depend on the
  // rest of the batch.
  std::vector<std::vector<VertexId>> expected(boxes.size());
  for (size_t q = 0; q < boxes.size(); ++q) {
    paged.RangeQuery(boxes[q], &expected[q]);
  }
  const PhaseStats single = paged.stats();
  paged.ResetStats();
  engine::QueryBatchResult one;
  for (const AABB& box : boxes) paged.RangeQueryBatch({&box, 1}, &one);
  const size_t one_box_probed = paged.stats().probed_vertices;

  for (const int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    engine::ThreadPool pool(threads);
    paged.ResetStats();
    engine::QueryBatchResult results;
    paged.RangeQueryBatch(boxes, &results, threads > 1 ? &pool : nullptr);
    ASSERT_EQ(results.size(), boxes.size());
    for (size_t q = 0; q < boxes.size(); ++q) {
      EXPECT_EQ(results.per_query[q], expected[q]) << "query " << q;
    }
    const PhaseStats& stats = paged.stats();
    EXPECT_EQ(stats.queries, single.queries);
    EXPECT_EQ(stats.walk_invocations, single.walk_invocations);
    EXPECT_EQ(stats.walk_vertices, single.walk_vertices);
    EXPECT_EQ(stats.crawl_edges, single.crawl_edges);
    EXPECT_EQ(stats.result_vertices, single.result_vertices);
    EXPECT_EQ(stats.probed_vertices, one_box_probed);
    if (threads == 1) {
      // Deterministic on one shard: 1.44 in Hilbert order, 2.48 in
      // arrival order (the batch touches 414 distinct pages through a
      // 32-page pool).
      const storage::PageIOStats& io = stats.page_io;
      EXPECT_LE(2 * io.PageAccesses(), 3 * io.pages_distinct)
          << "accesses=" << io.PageAccesses()
          << " distinct=" << io.pages_distinct;
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace octopus
