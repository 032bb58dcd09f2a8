// Copyright 2026 The OCTOPUS Reproduction Authors
#include "octopus/planner.h"

namespace octopus {

AdaptiveExecutor::AdaptiveExecutor() : AdaptiveExecutor(Options{}) {}

AdaptiveExecutor::AdaptiveExecutor(Options options)
    : options_(options),
      octopus_(options.octopus),
      histogram_(options.histogram_resolution) {}

void AdaptiveExecutor::Build(const TetraMesh& mesh) {
  octopus_.Build(mesh);
  // Histogram over the initial positions: deformation amplitudes are
  // small relative to the mesh, so estimates stay representative (and
  // routing only needs the right order of magnitude).
  histogram_.Build(mesh.positions());
  const CostConstants constants =
      options_.cost_constants.has_value()
          ? *options_.cost_constants
          : CalibrateCostConstants(mesh, options_.calibration_repetitions);
  const CostModel model = CostModel::FromMesh(mesh, constants);
  break_even_ = model.BreakEvenSelectivity();
  to_octopus_ = 0;
  to_scan_ = 0;
}

void AdaptiveExecutor::RangeQuery(const TetraMesh& mesh, const AABB& box,
                                  std::vector<VertexId>* out) const {
  const double selectivity = histogram_.EstimateSelectivity(box);
  if (selectivity < break_even_) {
    ++to_octopus_;
    octopus_.RangeQuery(mesh, box, out);
  } else {
    ++to_scan_;
    scan_.RangeQuery(mesh, box, out);
  }
}

size_t AdaptiveExecutor::FootprintBytes() const {
  return octopus_.FootprintBytes() + histogram_.FootprintBytes();
}

}  // namespace octopus
