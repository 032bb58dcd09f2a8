// Copyright 2026 The OCTOPUS Reproduction Authors
// A value description of a deformer — kind, amplitude, seed — that both
// sides of an epoch-parity check can construct the *same* deterministic
// trajectory from: the server binds one to its versioned backend, a test
// or bench binds an identical one to an in-process reference, and the
// per-step positions (hence query results) match bit for bit.
#ifndef OCTOPUS_SIM_DEFORMER_SPEC_H_
#define OCTOPUS_SIM_DEFORMER_SPEC_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "sim/deformer.h"

namespace octopus {

/// Deformation families a versioned backend can drive. Values are wire
/// identifiers (EPOCH_INFO frames) — append only, never renumber.
enum class DeformerKind : uint8_t {
  kNone = 0,        ///< static mesh, no deformer bound
  kRandom = 1,      ///< per-vertex bounded random displacement (adversarial)
  kWave = 2,        ///< convexity-preserving affine "ground shaking"
  kPlasticity = 3,  ///< smooth drifting harmonics (neural plasticity)
};

const char* DeformerKindName(DeformerKind kind);

/// Parses a CLI/wire name ("random", "wave", "plasticity"); false on
/// anything else ("none" is not bindable).
bool ParseDeformerKind(const std::string& name, DeformerKind* out);

/// \brief Everything needed to reproduce a deformer trajectory.
struct DeformerSpec {
  DeformerKind kind = DeformerKind::kNone;
  /// Displacement bound, in mesh units. 0 = derive a safe default from
  /// the mesh at bind time (a fraction of the mean edge length) — fine
  /// for serving, but parity tests should pass an explicit value so both
  /// sides agree without measuring the mesh.
  float amplitude = 0.0f;
  uint64_t seed = 42;
};

/// Instantiates the spec'd deformer (unbound). `amplitude` must be
/// resolved (> 0) by this point; use `MakeDeformerResolving` when the
/// spec may have left it 0. Fails on `kNone`.
Result<std::unique_ptr<Deformer>> MakeDeformer(const DeformerSpec& spec);

/// The one amplitude-resolution rule every backend shares (in-memory
/// and paged servers must agree on the trajectory for the same spec, so
/// both measure `mean_edge_length` with the single
/// `EstimateMeanEdgeLength` loop in sim/deformer.h): resolves
/// `spec->amplitude` in place — an unset (0) amplitude becomes
/// `DefaultAmplitude(mean_edge_length)` — then constructs the deformer.
Result<std::unique_ptr<Deformer>> MakeDeformerResolving(
    DeformerSpec* spec, float mean_edge_length);

/// The default amplitude rule for unresolved specs: a conservative
/// fraction of `mean_edge_length` that keeps elements valid for every
/// kind over long horizons.
float DefaultAmplitude(float mean_edge_length);

}  // namespace octopus

#endif  // OCTOPUS_SIM_DEFORMER_SPEC_H_
