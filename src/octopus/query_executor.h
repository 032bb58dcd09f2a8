// Copyright 2026 The OCTOPUS Reproduction Authors
// The OCTOPUS query execution strategy (paper Sec. IV, Algorithm 1):
// surface probe -> (directed walk if needed) -> crawling. No maintenance
// on deformation; incremental surface-index maintenance on restructuring.
//
// The phase cores are templates over `storage::MeshAccessor`, so the
// identical algorithm executes over the resident mesh (zero overhead)
// and over a paged out-of-core snapshot (see octopus/paged_executor.h).
//
// Thread-safety invariant (engine layer): after `Build`, the index object
// (`options_`, `surface_index_`) is read-only during query execution. All
// mutable query state — crawler visited-epochs, start scratch, phase
// stats — lives in per-thread `engine::ExecutionContext`s. During a
// parallel `RangeQueryBatch`, each shard accumulates stats into its own
// context-local `PhaseStats`; the locals are merged into the index-level
// aggregate `stats_` on the calling thread after the pool joins, in
// shard order — never shared mutation while queries are in flight. The
// single-query `RangeQuery` is `const` but routes through context 0, so
// it must not be called concurrently; use `RangeQueryBatch` for that.
#ifndef OCTOPUS_OCTOPUS_QUERY_EXECUTOR_H_
#define OCTOPUS_OCTOPUS_QUERY_EXECUTOR_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/timer.h"
#include "engine/execution_context.h"
#include "engine/thread_pool.h"
#include "index/spatial_index.h"
#include "octopus/crawler.h"
#include "octopus/directed_walk.h"
#include "octopus/phase_stats.h"
#include "octopus/probe_grid.h"
#include "octopus/surface_index.h"

namespace octopus {

/// \brief Configuration of the OCTOPUS executor.
struct OctopusOptions {
  /// Fraction of the surface probed per query (Sec. IV-H2 surface
  /// approximation): probing every k-th surface vertex realizes the
  /// paper's "sample of equidistant vertices on the surface". 1.0 = exact
  /// (probe everything); smaller values trade result accuracy for probe
  /// time.
  double surface_sample_fraction = 1.0;
  /// Keep the face registry so restructuring deltas can be applied
  /// incrementally via `OnRestructure`.
  bool support_restructuring = false;
  /// Visited-tracking strategy of the crawl: the default epoch array is
  /// fastest but holds O(V) scratch; `kHashSet` makes the crawl scratch
  /// proportional to the result size, which is the memory behaviour the
  /// paper reports in Fig. 10(b).
  VisitedMode visited_mode = VisitedMode::kEpochArray;
};

namespace internal {

/// Sampling stride of the surface probe (Sec. IV-H2 surface
/// approximation): probing every `stride`-th vertex of the probe order is
/// the paper's "equidistant sample" of the surface.
inline size_t ProbeStride(const OctopusOptions& options) {
  return options.surface_sample_fraction >= 1.0
             ? 1
             : std::max<size_t>(1, static_cast<size_t>(std::llround(
                                       1.0 / options.surface_sample_fraction)));
}

/// Phase 1 as the paper states it (Sec. IV-C): a linear scan of every
/// `stride`-th probe-order surface vertex. Fills `starts` with those
/// inside `box` and returns the closest one as the fallback walk start
/// (meaningful only when `starts` stays empty). `probed` receives the
/// number of distance-tested vertices.
template <storage::MeshAccessor Accessor>
VertexId ScanSurface(Accessor& mesh, std::span<const VertexId> surface,
                     size_t stride, const AABB& box,
                     std::vector<VertexId>* starts, size_t* probed) {
  starts->clear();
  VertexId closest = kInvalidVertex;
  float closest_d2 = std::numeric_limits<float>::max();
  size_t count = 0;
  for (size_t i = 0; i < surface.size(); i += stride) {
    // `ProbePosition`, not `position`: out of core, undeformed probe
    // positions come from index-resident data, so probing costs page
    // accesses only for overlay-covered (deformed) pages.
    const VertexId v = surface[i];
    ++count;
    const float d2 = box.SquaredDistanceTo(mesh.ProbePosition(i, v));
    if (d2 == 0.0f) {
      starts->push_back(v);
    } else if (starts->empty() && d2 < closest_d2) {
      closest_d2 = d2;
      closest = v;
    }
  }
  *probed = count;
  return closest;
}

/// One query of Algorithm 1 with Phase 1 supplied by `probe(starts,
/// probed)` (the scan or the batch's grid; both return the walk start):
/// surface probe -> directed walk if the probe was dry -> crawl. Appends
/// the result to `out` and accumulates into `context->stats`.
template <storage::MeshAccessor Accessor, typename Probe>
void RunQuery(Accessor& mesh, const AABB& box, const Probe& probe,
              engine::ExecutionContext* context,
              std::vector<VertexId>* out) {
  Timer timer;
  PhaseStats* stats = &context->stats;
  ++stats->queries;

  // --- Phase 1: surface probe (Sec. IV-C) ---
  std::vector<VertexId>* starts = &context->start_scratch;
  size_t probed = 0;
  const VertexId closest = probe(starts, &probed);
  stats->probed_vertices += probed;
  stats->probe_nanos += timer.ElapsedNanos();

  // --- Phase 2: directed walk (Sec. IV-D), only if the probe was dry ---
  if (starts->empty()) {
    timer.Restart();
    ++stats->walk_invocations;
    const WalkResult walk = DirectedWalk(mesh, box, closest);
    stats->walk_vertices += walk.vertices_visited;
    stats->walk_nanos += timer.ElapsedNanos();
    if (!walk.ok()) {
      return;  // query does not intersect the mesh: empty result
    }
    starts->push_back(walk.found);
  }

  // --- Phase 3: crawling (Sec. IV-B) ---
  timer.Restart();
  const CrawlStats crawl = context->crawler.Crawl(mesh, box, *starts, out);
  stats->crawl_edges += crawl.edges_traversed;
  stats->result_vertices += crawl.vertices_inside;
  stats->crawl_nanos += timer.ElapsedNanos();
}

/// The batch's execution order (Sec. IV-H1 applied to the batch): query
/// indices sorted by the 3-D Hilbert key (10 bits per axis) of each box's
/// center within the union of the batch's finite boxes, ties by arrival
/// index. Boxes with a non-finite coordinate come last, in arrival order.
/// Consecutive queries then crawl neighbouring pages of a Hilbert-laid-out
/// snapshot while those are still leased or pooled.
std::vector<uint32_t> HilbertBatchOrder(std::span<const AABB> boxes);

}  // namespace internal

/// Algorithm 1 for one query over any mesh accessor, with the paper's
/// scanning surface probe (optionally sampled, Sec. IV-H2). This is the
/// single-query path and the reference the batch path is tested against.
/// Appends the result to `out` and accumulates into `context->stats`.
/// Re-entrant: concurrent calls are safe as long as each uses its own
/// context and accessor (the backing store and surface index are only
/// read).
template <storage::MeshAccessor Accessor>
void ExecuteOctopusQuery(Accessor& mesh, const SurfaceIndex& surface_index,
                         const OctopusOptions& options, const AABB& box,
                         engine::ExecutionContext* context,
                         std::vector<VertexId>* out) {
  const size_t stride = internal::ProbeStride(options);
  internal::RunQuery(
      mesh, box,
      [&](std::vector<VertexId>* starts, size_t* probed) {
        return internal::ScanSurface(mesh, surface_index.probe_order(),
                                     stride, box, starts, probed);
      },
      context, out);
}

/// Batch core shared by every OCTOPUS executor (`Octopus`, `HexOctopus`,
/// `PagedOctopus`): resets `out`, clamps the shard count to min(pool
/// width, batch size), runs each shard's contiguous run of the batch's
/// execution order (`internal::HilbertBatchOrder`) on its own context
/// (grown via `contexts->Ensure` on the calling thread before forking),
/// and merges per-shard stats into the pool's aggregate in deterministic
/// shard order after the pool joins. `pool` may be null (sequential).
/// `make_accessor(context)` supplies the shard's mesh accessor — by value
/// for the free in-memory view, by reference for a context-owned paged
/// accessor. Per-query results land at their arrival index and are
/// independent of the shard count and of the order; only page counters
/// depend on the order.
///
/// Phase 1 is batch-shared: before the fork, the calling thread bins the
/// (sampled) probe positions into the pool's `ProbeGrid` through shard
/// 0's accessor, and each query then tests only the cells its box covers
/// (see octopus/probe_grid.h). Hits, walk starts and therefore results
/// and walk/crawl counters equal the scan's; `probed_vertices` counts the
/// grid's candidates, and the build pass is charged to `probe_nanos`. A
/// box with a non-finite coordinate falls back to the scan.
template <typename MakeAccessor>
void ExecuteOctopusBatch(const MakeAccessor& make_accessor,
                         const SurfaceIndex& surface_index,
                         const OctopusOptions& options,
                         std::span<const AABB> boxes,
                         engine::QueryBatchResult* out,
                         engine::ThreadPool* pool,
                         engine::ContextPool* contexts) {
  out->Reset(boxes.size());
  const int shards =
      pool == nullptr
          ? 1
          : static_cast<int>(
                std::min<size_t>(pool->threads(),
                                 std::max<size_t>(boxes.size(), 1)));
  // Contexts are created/sized on the calling thread, before forking.
  contexts->Ensure(shards);

  const std::span<const VertexId> surface = surface_index.probe_order();
  const size_t stride = internal::ProbeStride(options);
  ProbeGrid* grid = contexts->probe_grid();
  // Shard 0's accessor is opened here, once, so the grid reads the very
  // probe positions (epoch, overlay patches) the shards will read.
  decltype(auto) first_accessor = make_accessor(contexts->context(0));
  if (!boxes.empty()) {
    Timer timer;
    grid->Build(first_accessor, surface, stride);
    contexts->context(0)->stats.probe_nanos += timer.ElapsedNanos();
  }

  const std::vector<uint32_t> order = internal::HilbertBatchOrder(boxes);
  auto run_queries = [&](auto& accessor, engine::ExecutionContext* context,
                         size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const uint32_t q = order[i];
      const AABB& box = boxes[q];
      internal::RunQuery(
          accessor, box,
          [&](std::vector<VertexId>* starts, size_t* probed) {
            return box.IsFinite()
                       ? grid->Probe(accessor, surface, box, starts, probed)
                       : internal::ScanSurface(accessor, surface, stride,
                                               box, starts, probed);
          },
          context, &out->per_query[q]);
    }
    // Batch-scoped leases (paged accessors) are released before the
    // shard retires: deterministic counters, and an idle accessor holds
    // no pool resources between batches.
    if constexpr (requires { accessor.EndBatch(); }) {
      accessor.EndBatch();
    }
  };
  auto run_shard = [&](int shard) {
    // The pool always invokes one call per pool thread; threads beyond
    // the (batch-size-clamped) shard count have no work.
    if (shard >= shards) return;
    // Contiguous sharding: shard s owns order[s*n/T, (s+1)*n/T).
    const size_t begin = boxes.size() * shard / shards;
    const size_t end = boxes.size() * (shard + 1) / shards;
    engine::ExecutionContext* context = contexts->context(shard);
    if (shard == 0) {
      run_queries(first_accessor, context, begin, end);
    } else {
      decltype(auto) accessor = make_accessor(context);
      run_queries(accessor, context, begin, end);
    }
  };

  if (shards == 1) {
    run_shard(0);
  } else {
    pool->Run(run_shard);
  }

  // Deterministic merge at batch end, on the calling thread: counts are
  // identical for any thread count (timings naturally vary).
  contexts->MergeStats(shards);
}

/// Resident-mesh wrappers (the historical entry points).
void ExecuteOctopusQuery(const MeshGraphView& graph,
                         const SurfaceIndex& surface_index,
                         const OctopusOptions& options, const AABB& box,
                         engine::ExecutionContext* context,
                         std::vector<VertexId>* out);

void ExecuteOctopusBatch(const MeshGraphView& graph,
                         const SurfaceIndex& surface_index,
                         const OctopusOptions& options,
                         std::span<const AABB> boxes,
                         engine::QueryBatchResult* out,
                         engine::ThreadPool* pool,
                         engine::ContextPool* contexts);

/// \brief OCTOPUS: range-query execution for unpredictably deforming
/// meshes.
///
/// Implements `SpatialIndex`, so benches compare it directly against the
/// baselines. `BeforeQueries` is a no-op — that is the entire point: mesh
/// deformation requires no index maintenance.
class Octopus : public SpatialIndex {
 public:
  explicit Octopus(OctopusOptions options = {});

  std::string Name() const override { return "OCTOPUS"; }

  /// Builds the surface index (one-time preprocessing; paper reports 62 s
  /// for the 33 GB mesh). Time it with a Timer if needed for reports.
  void Build(const TetraMesh& mesh) override;

  /// No-op: deformation never invalidates OCTOPUS's structures.
  void BeforeQueries(const TetraMesh& mesh) override { (void)mesh; }

  /// Single-query convenience path through context 0. Not safe to call
  /// concurrently (see the header invariant); `RangeQueryBatch` is.
  void RangeQuery(const TetraMesh& mesh, const AABB& box,
                  std::vector<VertexId>* out) const override;

  /// The parallel path: shards `boxes` contiguously across `pool` (or
  /// runs sequentially when `pool` is null), one execution context per
  /// shard. Per-query results are independent of the thread count;
  /// per-shard stats merge into `stats()` in deterministic shard order.
  void RangeQueryBatch(const TetraMesh& mesh, std::span<const AABB> boxes,
                       engine::QueryBatchResult* out,
                       engine::ThreadPool* pool = nullptr) const override;

  /// Surface index + per-context crawl scratch (paper Fig. 10(b)
  /// accounting). Honest accounting: the sum covers EVERY allocated
  /// execution context, so after a T-thread batch the crawl-scratch term
  /// is T× the sequential one (that memory is really held). The paper's
  /// figures correspond to the default single-threaded configuration.
  size_t FootprintBytes() const override;

  /// Incremental maintenance after a mesh restructuring step. Requires
  /// `support_restructuring` in the options.
  void OnRestructure(const TetraMesh& mesh, const RestructureDelta& delta);

  const SurfaceIndex& surface_index() const { return surface_index_; }
  const PhaseStats& stats() const { return contexts_.stats(); }
  void ResetStats() const { contexts_.ResetStats(); }

 private:
  OctopusOptions options_;
  SurfaceIndex surface_index_;
  // Per-shard execution contexts (lazily created, reused across batches)
  // and the merged aggregate. `mutable`: queries are logically const —
  // they never change the index structure — but need scratch + stats.
  mutable engine::ContextPool contexts_;
};

}  // namespace octopus

#endif  // OCTOPUS_OCTOPUS_QUERY_EXECUTOR_H_
