// Copyright 2026 The OCTOPUS Reproduction Authors
// Outside the timed region: checks sampled RESULTs against in-process
// references at the same epoch, and times the layer entry points the
// traced run reports in-process (the P-sourced per-layer metrics).
#ifndef OCTOBENCH_REFERENCE_H_
#define OCTOBENCH_REFERENCE_H_

#include <string>
#include <vector>

#include "harness.h"
#include "sim/deformer_spec.h"
#include "workloads.h"

namespace octobench {

struct CheckResult {
  size_t samples = 0;
  size_t queries = 0;
  size_t mismatches = 0;      ///< queries whose answer set differs
  bool self_test_caught = false;  ///< a corrupted answer was rejected
  std::string first_mismatch;
  std::string error;          ///< reference could not be built
  bool ok() const {
    return error.empty() && mismatches == 0 && self_test_caught;
  }
};

/// In-memory workloads: a twin of `mesh_path` with its own stale index
/// built at step 0, stepped by an identical `spec` deformer; every
/// sample (current or historical) is compared with the twin at the
/// sample's step. `apply_step_ms` receives the twin's
/// `Deformer::ApplyStep` timings.
CheckResult CheckAgainstTwin(const std::string& mesh_path,
                             const octopus::DeformerSpec& spec,
                             std::vector<AnswerSample> samples,
                             Samples* apply_step_ms);

/// Out-of-core workload: an in-process `OpenSnapshot` over the file the
/// server serves (same permuted id space).
CheckResult CheckAgainstSnapshot(const std::string& snapshot_path,
                                 std::vector<AnswerSample> samples);

/// Layer timings taken in-process by the traced run.
struct LayerTimings {
  double mesh_load_s = 0;    ///< LoadMesh
  double index_build_s = 0;  ///< VersionedBackend::FromMesh / OpenSnapshot
  Samples advance_step_ms;   ///< VersionedBackend::AdvanceStep
  Samples epoch_reload_ms;   ///< ExecuteAt(spilled epoch, no boxes)
  std::string error;
};

/// Builds the workload's backend in-process with the server's settings
/// and times its entry points; scratch sidecars go under `work_dir`.
LayerTimings TimeLayers(const Inputs& in);

}  // namespace octobench

#endif  // OCTOBENCH_REFERENCE_H_
