// Copyright 2026 The OCTOPUS Reproduction Authors
#include "octopus/query_executor.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

#include "common/hilbert.h"

namespace octopus {

namespace internal {

std::vector<uint32_t> HilbertBatchOrder(std::span<const AABB> boxes) {
  AABB bounds;
  for (const AABB& box : boxes) {
    if (!box.IsFinite()) continue;
    // Both corners: an inverted box's center lies between them too.
    bounds.Extend(box.min);
    bounds.Extend(box.max);
  }
  const HilbertCurve3D curve(10);
  std::vector<std::pair<uint64_t, uint32_t>> keyed(boxes.size());
  for (size_t q = 0; q < boxes.size(); ++q) {
    keyed[q] = {boxes[q].IsFinite()
                    ? curve.EncodePoint(boxes[q].Center(), bounds)
                    : std::numeric_limits<uint64_t>::max(),
                static_cast<uint32_t>(q)};
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<uint32_t> order(boxes.size());
  for (size_t i = 0; i < keyed.size(); ++i) order[i] = keyed[i].second;
  return order;
}

}  // namespace internal

void ExecuteOctopusQuery(const MeshGraphView& graph,
                         const SurfaceIndex& surface_index,
                         const OctopusOptions& options, const AABB& box,
                         engine::ExecutionContext* context,
                         std::vector<VertexId>* out) {
  storage::InMemoryMeshAccessor accessor(graph);
  ExecuteOctopusQuery(accessor, surface_index, options, box, context, out);
}

void ExecuteOctopusBatch(const MeshGraphView& graph,
                         const SurfaceIndex& surface_index,
                         const OctopusOptions& options,
                         std::span<const AABB> boxes,
                         engine::QueryBatchResult* out,
                         engine::ThreadPool* pool,
                         engine::ContextPool* contexts) {
  ExecuteOctopusBatch(
      [&graph](engine::ExecutionContext*) {
        return storage::InMemoryMeshAccessor(graph);
      },
      surface_index, options, boxes, out, pool, contexts);
}

Octopus::Octopus(OctopusOptions options)
    : options_(options), contexts_(options.visited_mode) {
  assert(options_.surface_sample_fraction > 0.0 &&
         options_.surface_sample_fraction <= 1.0);
  surface_index_ = SurfaceIndex(SurfaceIndex::Options{
      .support_restructuring = options_.support_restructuring,
  });
}

void Octopus::Build(const TetraMesh& mesh) {
  surface_index_.Build(mesh);
  contexts_.set_num_vertices(mesh.num_vertices());
  contexts_.Ensure(1);
}

void Octopus::RangeQuery(const TetraMesh& mesh, const AABB& box,
                         std::vector<VertexId>* out) const {
  contexts_.Ensure(1);
  ExecuteOctopusQuery(mesh.Graph(), surface_index_, options_, box,
                      contexts_.context(0), out);
  // Single-query path: fold the context delta into the aggregate
  // immediately so `stats()` stays live between calls, as it was when the
  // stats lived inside the index.
  contexts_.MergeStats(1);
}

void Octopus::RangeQueryBatch(const TetraMesh& mesh,
                              std::span<const AABB> boxes,
                              engine::QueryBatchResult* out,
                              engine::ThreadPool* pool) const {
  ExecuteOctopusBatch(mesh.Graph(), surface_index_, options_, boxes, out,
                      pool, &contexts_);
}

size_t Octopus::FootprintBytes() const {
  return surface_index_.FootprintBytes() + contexts_.ScratchBytes();
}

void Octopus::OnRestructure(const TetraMesh& mesh,
                            const RestructureDelta& delta) {
  surface_index_.ApplyDelta(delta);
  contexts_.set_num_vertices(mesh.num_vertices());
}

}  // namespace octopus
