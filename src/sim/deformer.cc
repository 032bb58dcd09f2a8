// Copyright 2026 The OCTOPUS Reproduction Authors
#include "sim/deformer.h"

namespace octopus {

float EstimateMeanEdgeLength(const TetraMesh& mesh, size_t sample) {
  return EstimateMeanEdgeLength(
      mesh.positions(), [&mesh](VertexId v) { return mesh.neighbors(v); },
      sample);
}

}  // namespace octopus
