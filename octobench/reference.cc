// Copyright 2026 The OCTOPUS Reproduction Authors
#include "reference.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/timer.h"
#include "engine/query_engine.h"
#include "mesh/mesh_io.h"
#include "octopus/query_executor.h"
#include "server/versioned_backend.h"

namespace octobench {

namespace {

using octopus::VertexId;
using Answer = std::vector<std::vector<VertexId>>;

/// Answers are sets: compare each query's vertices order-free.
bool SameAnswer(const Answer& expected, const Answer& got) {
  if (expected.size() != got.size()) return false;
  for (size_t q = 0; q < expected.size(); ++q) {
    std::vector<VertexId> a = expected[q], b = got[q];
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    if (a != b) return false;
  }
  return true;
}

/// Compares one sample and, once per check, proves the comparison can
/// fail: the server's answer with one vertex dropped (or one added to
/// an empty query) must be rejected.
void Compare(const Answer& expected, const AnswerSample& sample,
             CheckResult* out) {
  ++out->samples;
  out->queries += expected.size();
  if (!SameAnswer(expected, sample.results)) {
    for (size_t q = 0; q < expected.size(); ++q) {
      if (q >= sample.results.size() ||
          !SameAnswer({expected[q]}, {sample.results[q]})) {
        ++out->mismatches;
        if (out->first_mismatch.empty()) {
          out->first_mismatch =
              "step " + std::to_string(sample.step) + " query " +
              std::to_string(q) + ": expected " +
              std::to_string(expected[q].size()) + " vertices, got " +
              std::to_string(q < sample.results.size()
                                 ? sample.results[q].size()
                                 : 0);
        }
      }
    }
  }
  if (!out->self_test_caught && !sample.results.empty()) {
    Answer corrupted = sample.results;
    auto& victim = corrupted.front();
    if (victim.empty()) {
      victim.push_back(0);
    } else {
      victim.pop_back();
    }
    out->self_test_caught = !SameAnswer(expected, corrupted);
  }
}

}  // namespace

CheckResult CheckAgainstTwin(const std::string& mesh_path,
                             const octopus::DeformerSpec& spec,
                             std::vector<AnswerSample> samples,
                             Samples* apply_step_ms) {
  CheckResult out;
  auto loaded = octopus::LoadMesh(mesh_path);
  if (!loaded.ok()) {
    out.error = "twin: " + loaded.status().ToString();
    return out;
  }
  octopus::TetraMesh twin = loaded.MoveValue();
  octopus::Octopus index;
  index.Build(twin);  // stale from here on, as in the server
  auto deformer = octopus::MakeDeformer(spec);
  if (!deformer.ok()) {
    out.error = "twin deformer: " + deformer.status().ToString();
    return out;
  }
  deformer.Value()->Bind(twin);
  octopus::engine::QueryEngine engine;

  std::stable_sort(samples.begin(), samples.end(),
                   [](const AnswerSample& a, const AnswerSample& b) {
                     return a.step < b.step;
                   });
  uint32_t step = 0;
  octopus::engine::QueryBatchResult expected;
  for (const AnswerSample& sample : samples) {
    while (step < sample.step) {
      ++step;
      octopus::Timer timer;
      deformer.Value()->ApplyStep(static_cast<int>(step), &twin);
      apply_step_ms->Add(timer.ElapsedNanos() / 1e6);
    }
    engine.Execute(index, twin, sample.boxes, &expected);
    Compare(expected.per_query, sample, &out);
  }
  return out;
}

CheckResult CheckAgainstSnapshot(const std::string& snapshot_path,
                                 std::vector<AnswerSample> samples) {
  CheckResult out;
  auto header = octopus::storage::ReadSnapshotHeader(snapshot_path);
  if (!header.ok()) {
    out.error = "snapshot: " + header.status().ToString();
    return out;
  }
  // A pool holding the whole file: the reference's speed, not its
  // answers, depends on the pool size.
  auto opened = octopus::server::VersionedBackend::OpenSnapshot(
      snapshot_path, header.Value().FileBytes(), /*threads=*/1);
  if (!opened.ok()) {
    out.error = "snapshot: " + opened.status().ToString();
    return out;
  }
  octopus::engine::QueryBatchResult expected;
  octopus::PhaseStats stats;
  for (const AnswerSample& sample : samples) {
    opened.Value()->Execute(sample.boxes, &expected, &stats);
    Compare(expected.per_query, sample, &out);
  }
  return out;
}

LayerTimings TimeLayers(const Inputs& in) {
  LayerTimings t;
  octopus::Timer timer;
  auto loaded = octopus::LoadMesh(in.mesh_path);
  t.mesh_load_s = timer.ElapsedSeconds();
  if (!loaded.ok()) {
    t.error = "load: " + loaded.status().ToString();
    return t;
  }
  if (in.workload == Workload::kOutOfCore) {
    timer.Restart();
    auto opened = octopus::server::VersionedBackend::OpenSnapshot(
        in.snapshot_path, in.pool_bytes, /*threads=*/1);
    t.index_build_s = timer.ElapsedSeconds();
    if (!opened.ok()) t.error = "open: " + opened.status().ToString();
    return t;
  }
  timer.Restart();
  auto backend =
      octopus::server::VersionedBackend::FromMesh(loaded.MoveValue(), 1);
  t.index_build_s = timer.ElapsedSeconds();

  // The server's retention for this workload (serve's defaults for
  // lockstep, with the CLI's always-on sidecar).
  octopus::server::EpochRetentionOptions retention;
  retention.spill_path = in.work_dir + "/layers.oct2d";
  if (in.workload == Workload::kHistory) {
    retention.retention_epochs = 2;
    retention.history_epochs = 64;
  }
  octopus::Status status = backend->ConfigureRetention(retention);
  if (status.ok()) status = backend->BindDeformer(in.spec);
  if (!status.ok()) {
    t.error = "bind: " + status.ToString();
    std::remove(retention.spill_path.c_str());
    return t;
  }
  constexpr int kSteps = 64;
  for (int i = 0; i < kSteps; ++i) {
    timer.Restart();
    backend->AdvanceStep();
    t.advance_step_ms.Add(timer.ElapsedNanos() / 1e6);
  }
  if (in.workload == Workload::kHistory) {
    // Each spilled epoch once (a repeat could hit the reload pool).
    const uint64_t current = backend->CurrentEpoch().epoch;
    octopus::engine::QueryBatchResult out;
    octopus::PhaseStats stats;
    for (uint64_t back = 48; back >= 8; --back) {
      timer.Restart();
      status = backend->ExecuteAt(current - back, {}, &out, &stats);
      t.epoch_reload_ms.Add(timer.ElapsedNanos() / 1e6);
      if (!status.ok()) {
        t.error = "reload: " + status.ToString();
        break;
      }
    }
  }
  backend.reset();  // closes the sidecar before it is removed
  std::remove(retention.spill_path.c_str());
  return t;
}

}  // namespace octobench
