// Copyright 2026 The OCTOPUS Reproduction Authors
// The batch-shared surface probe. The paper's probe (Sec. IV-C) scans the
// whole surface for every query, and its cost model (Sec. IV-G) charges
// |S| * c_p per query. A coalesced batch of B queries would pay that B
// times, so the batch executor instead bins the probe positions into one
// uniform grid per batch (a single O(|S|) build on the calling thread)
// and each query tests only the cells its box covers.
//
// The grid answers exactly what the scan answers:
//  * hits (surface vertices with `box.SquaredDistanceTo(p) == 0`) in
//    ascending probe rank, the scan's emission order;
//  * for a dry query (no hit), the scan's `closest`: the minimum squared
//    distance, lowest rank on a tie, found by an expanding-shell search
//    that stops only on a conservative distance bound.
// Non-finite positions are never a hit nor the closest for a finite box,
// so the grid leaves them out; a non-finite box is the caller's to route
// to the scan.
//
// The geometry (bounding box, cell counts) is a function of the probe
// positions alone, never of the batch, so a query's candidate count
// (`probed_vertices`) depends only on its box and the position epoch.
// The grid is rebuilt per batch and never maintained across deformation:
// the persistent index stays the paper's geometric surface index.
#ifndef OCTOPUS_OCTOPUS_PROBE_GRID_H_
#define OCTOPUS_OCTOPUS_PROBE_GRID_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/aabb.h"
#include "mesh/types.h"
#include "storage/mesh_accessor.h"

namespace octopus {

/// \brief Uniform grid over the (sampled) probe-order surface positions,
/// storing probe ranks bucketed by cell (CSR: `cell_start_` + `ranks_`):
/// 4 bytes per sampled vertex plus 4 per cell.
///
/// Built on one thread, then read-only: any number of shards may `Probe`
/// it concurrently, each with its own accessor and scratch.
class ProbeGrid {
 public:
  /// Cell-count target: about this many sampled vertices per cell of the
  /// bounding box.
  static constexpr double kVerticesPerCell = 2.0;

  /// Bins ranks `0, stride, 2*stride, ...` of `surface` by the position
  /// `mesh.ProbePosition(rank, surface[rank])`, skipping non-finite ones.
  /// Reuses the buffers of the previous build.
  template <storage::MeshAccessor Accessor>
  void Build(Accessor& mesh, std::span<const VertexId> surface,
             size_t stride);

  /// Phase 1 for a finite `box`: fills `starts` with the surface vertices
  /// inside `box` in ascending probe rank. Returns the walk start when
  /// there are none (the closest sampled vertex, or `kInvalidVertex` if
  /// no finite distance exists), `kInvalidVertex` otherwise. `probed`
  /// receives the number of distance-tested candidates.
  template <storage::MeshAccessor Accessor>
  VertexId Probe(Accessor& mesh, std::span<const VertexId> surface,
                 const AABB& box, std::vector<VertexId>* starts,
                 size_t* probed) const;

  /// Cells per axis (tests build cases against known geometry).
  const std::array<int, 3>& dims() const { return dims_; }

  /// Bytes held by the grid's buffers (footprint accounting).
  size_t FootprintBytes() const {
    return (cell_start_.capacity() + ranks_.capacity()) * sizeof(uint32_t);
  }

 private:
  using Range = std::array<std::array<int, 2>, 3>;  // [axis][lo, hi]

  /// Sizes the grid for `n` finite positions spanning `[lo, hi]`.
  void SetGeometry(const std::array<double, 3>& lo,
                   const std::array<double, 3>& hi, size_t n);

  /// Clamped cell coordinate of `x` on `axis`: branch-free and monotone
  /// in `x`, so a position inside an interval never falls outside the
  /// interval's cell range. Computed in double, subtracting before
  /// scaling, the coordinate is within `dims * 2^-51` cells of exact.
  int CellOf(int axis, double x) const {
    return static_cast<int>(
        std::min(std::max((x - lo_[axis]) * inv_[axis], 0.0), top_[axis]));
  }

  size_t CellIndex(const Vec3& p) const {
    return (static_cast<size_t>(CellOf(2, p.z)) * dims_[1] +
            CellOf(1, p.y)) * dims_[0] +
           CellOf(0, p.x);
  }

  /// Lower bound on the squared distance from the search box `[s_lo,
  /// s_hi]` to any gridded position outside the cell range `r`; +inf when
  /// `r` covers the grid.
  double OutsideBound(const Range& r, const std::array<double, 3>& s_lo,
                      const std::array<double, 3>& s_hi) const;

  // Bounding box of the gridded positions.
  std::array<double, 3> lo_ = {0, 0, 0};
  std::array<double, 3> hi_ = {0, 0, 0};
  std::array<double, 3> cell_ = {0, 0, 0};
  std::array<double, 3> inv_ = {0, 0, 0};
  std::array<double, 3> top_ = {0, 0, 0};  // dims_ - 1
  std::array<int, 3> dims_ = {1, 1, 1};
  std::vector<uint32_t> cell_start_;  // num_cells + 1 offsets into ranks_
  std::vector<uint32_t> ranks_;       // probe ranks, by cell then rank
};

inline void ProbeGrid::SetGeometry(const std::array<double, 3>& lo,
                                   const std::array<double, 3>& hi,
                                   size_t n) {
  lo_ = lo;
  hi_ = hi;
  dims_ = {1, 1, 1};
  const double target =
      std::max(1.0, static_cast<double>(n) / kVerticesPerCell);
  // Axes with extent get cells; an axis whose extent is below the cell
  // edge of the others stays one cell thick and drops out, so a flat or
  // needle-like surface still gets ~`target` cells, not a blow-up.
  std::array<bool, 3> active;
  for (int a = 0; a < 3; ++a) active[a] = hi[a] > lo[a];
  double side = 0.0;
  for (bool changed = true; changed;) {
    changed = false;
    double volume = 1.0;
    int k = 0;
    for (int a = 0; a < 3; ++a) {
      if (active[a]) {
        volume *= hi[a] - lo[a];
        ++k;
      }
    }
    if (k == 0) break;
    side = std::pow(volume / target, 1.0 / k);
    for (int a = 0; a < 3; ++a) {
      if (active[a] && hi[a] - lo[a] < side) {
        active[a] = false;
        changed = true;
      }
    }
  }
  for (int a = 0; a < 3; ++a) {
    const double extent = hi[a] - lo[a];
    if (active[a]) {
      dims_[a] = static_cast<int>(std::max(1.0, std::round(extent / side)));
    }
    cell_[a] = extent / dims_[a];
    inv_[a] = extent > 0.0 ? dims_[a] / extent : 0.0;
    top_[a] = dims_[a] - 1;
  }
}

template <storage::MeshAccessor Accessor>
void ProbeGrid::Build(Accessor& mesh, std::span<const VertexId> surface,
                      size_t stride) {
  // Pass 1: bounding box and count of the finite sampled positions.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::array<double, 3> lo = {kInf, kInf, kInf};
  std::array<double, 3> hi = {-kInf, -kInf, -kInf};
  size_t n = 0;
  for (size_t i = 0; i < surface.size(); i += stride) {
    const Vec3 p = mesh.ProbePosition(i, surface[i]);
    if (!p.IsFinite()) continue;
    ++n;
    const std::array<double, 3> c = {p.x, p.y, p.z};
    for (int a = 0; a < 3; ++a) {
      lo[a] = std::min(lo[a], c[a]);
      hi[a] = std::max(hi[a], c[a]);
    }
  }
  if (n == 0) lo = hi = {0, 0, 0};
  SetGeometry(lo, hi, n);

  // Passes 2-3: counting sort of the ranks by cell. The cell is computed
  // twice rather than stored, so the grid holds only ranks. Ascending
  // ranks keep each cell's ranks ascending.
  const bool all_finite = n == (surface.size() + stride - 1) / stride;
  const size_t num_cells =
      static_cast<size_t>(dims_[0]) * dims_[1] * dims_[2];
  cell_start_.assign(num_cells + 1, 0);
  for (size_t i = 0; i < surface.size(); i += stride) {
    const Vec3 p = mesh.ProbePosition(i, surface[i]);
    if (all_finite || p.IsFinite()) ++cell_start_[CellIndex(p) + 1];
  }
  for (size_t c = 0; c < num_cells; ++c) cell_start_[c + 1] += cell_start_[c];
  ranks_.resize(n);
  for (size_t i = 0; i < surface.size(); i += stride) {
    const Vec3 p = mesh.ProbePosition(i, surface[i]);
    if (all_finite || p.IsFinite()) {
      ranks_[cell_start_[CellIndex(p)]++] = static_cast<uint32_t>(i);
    }
  }
  // Placement advanced every start to its cell's end; shift back.
  for (size_t c = num_cells; c > 0; --c) cell_start_[c] = cell_start_[c - 1];
  cell_start_[0] = 0;
}

inline double ProbeGrid::OutsideBound(
    const Range& r, const std::array<double, 3>& s_lo,
    const std::array<double, 3>& s_hi) const {
  // `CellOf`'s rounding error (under 2^-20 cells for any grid that fits
  // in memory) is absorbed by `kSlack` cells of margin on every edge.
  constexpr double kSlack = 1e-3;
  // Every gridded position lies in [lo_, hi_], so on each axis it is at
  // least `floor` away from the search box; a box far outside the grid
  // then stops the search as soon as the nearest region is covered.
  std::array<double, 3> floor2;
  double floor_sum = 0.0;
  for (int a = 0; a < 3; ++a) {
    const double f = std::max({s_lo[a] - hi_[a], lo_[a] - s_hi[a], 0.0});
    floor2[a] = f * f;
    floor_sum += floor2[a];
  }
  double bound = std::numeric_limits<double>::infinity();
  for (int a = 0; a < 3; ++a) {
    // A position binned below cell r[a][0] lies below that cell's lower
    // edge; one binned above r[a][1] lies above that cell's upper edge.
    const double others = floor_sum - floor2[a];
    if (r[a][0] > 0) {
      const double gap = (s_lo[a] - lo_[a]) - (r[a][0] + kSlack) * cell_[a];
      bound = std::min(bound, others + std::max(gap > 0.0 ? gap * gap : 0.0,
                                                floor2[a]));
    }
    if (r[a][1] < dims_[a] - 1) {
      const double gap =
          (r[a][1] + 1 - kSlack) * cell_[a] - (s_hi[a] - lo_[a]);
      bound = std::min(bound, others + std::max(gap > 0.0 ? gap * gap : 0.0,
                                                floor2[a]));
    }
  }
  // The probe's float distances may round below the exact ones: by a
  // few ulps, or by a few subnormal steps near zero.
  return bound * (1.0 - 1e-6) - 1e-44;
}

template <storage::MeshAccessor Accessor>
VertexId ProbeGrid::Probe(Accessor& mesh, std::span<const VertexId> surface,
                          const AABB& box, std::vector<VertexId>* starts,
                          size_t* probed) const {
  starts->clear();
  *probed = 0;
  if (ranks_.empty()) return kInvalidVertex;

  // The search box: the query box with each axis ordered (an inverted
  // box is no hit, but its distance is bounded by the swapped interval)
  // and widened by a hair, since a position outside the box by less than
  // ~2.6e-23 has a squared distance that underflows to 0 (a hit).
  constexpr double kUnderflowSlack = 1e-22;
  const std::array<float, 3> bmin = {box.min.x, box.min.y, box.min.z};
  const std::array<float, 3> bmax = {box.max.x, box.max.y, box.max.z};
  std::array<double, 3> s_lo;
  std::array<double, 3> s_hi;
  Range box_cells;
  for (int a = 0; a < 3; ++a) {
    s_lo[a] = static_cast<double>(std::min(bmin[a], bmax[a])) -
              kUnderflowSlack;
    s_hi[a] = static_cast<double>(std::max(bmin[a], bmax[a])) +
              kUnderflowSlack;
    box_cells[a] = {CellOf(a, s_lo[a]), CellOf(a, s_hi[a])};
  }

  float best_d2 = std::numeric_limits<float>::max();
  uint32_t best_rank = 0;  // with best_d2 == max, no tie can ever win
  // Tests the ranks of cells [first, last] of one x-row (a contiguous run
  // of `ranks_`).
  auto test_cells = [&](size_t first, size_t last) {
    const uint32_t end = cell_start_[last + 1];
    for (uint32_t j = cell_start_[first]; j < end; ++j) {
      const uint32_t rank = ranks_[j];
      const float d2 =
          box.SquaredDistanceTo(mesh.ProbePosition(rank, surface[rank]));
      if (d2 == 0.0f) {
        starts->push_back(rank);
      } else if (d2 < best_d2 || (d2 == best_d2 && rank < best_rank)) {
        best_d2 = d2;
        best_rank = rank;
      }
    }
    *probed += end - cell_start_[first];
  };
  auto row = [&](int y, int z) {
    return (static_cast<size_t>(z) * dims_[1] + y) * dims_[0];
  };

  for (int z = box_cells[2][0]; z <= box_cells[2][1]; ++z) {
    for (int y = box_cells[1][0]; y <= box_cells[1][1]; ++y) {
      test_cells(row(y, z) + box_cells[0][0], row(y, z) + box_cells[0][1]);
    }
  }
  if (!starts->empty()) {
    // Hits as vertex ids, in the scan's (ascending rank) order.
    std::sort(starts->begin(), starts->end());
    for (VertexId& v : *starts) v = surface[v];
    return kInvalidVertex;
  }

  // Dry query: grow the searched range one shell of cells at a time
  // until nothing outside it can be closer than (or tie with) the best.
  Range searched = box_cells;
  while (OutsideBound(searched, s_lo, s_hi) <= best_d2) {
    Range shell;
    for (int a = 0; a < 3; ++a) {
      shell[a] = {std::max(searched[a][0] - 1, 0),
                  std::min(searched[a][1] + 1, dims_[a] - 1)};
    }
    for (int z = shell[2][0]; z <= shell[2][1]; ++z) {
      const bool z_inner = z >= searched[2][0] && z <= searched[2][1];
      for (int y = shell[1][0]; y <= shell[1][1]; ++y) {
        const size_t base = row(y, z);
        if (z_inner && y >= searched[1][0] && y <= searched[1][1]) {
          // Inner row: only the new cells at its two ends.
          if (shell[0][0] < searched[0][0]) {
            test_cells(base + shell[0][0], base + shell[0][0]);
          }
          if (shell[0][1] > searched[0][1]) {
            test_cells(base + shell[0][1], base + shell[0][1]);
          }
        } else {
          test_cells(base + shell[0][0], base + shell[0][1]);
        }
      }
    }
    searched = shell;
  }
  return best_d2 < std::numeric_limits<float>::max() ? surface[best_rank]
                                                     : kInvalidVertex;
}

}  // namespace octopus

#endif  // OCTOPUS_OCTOPUS_PROBE_GRID_H_
