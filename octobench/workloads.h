// Copyright 2026 The OCTOPUS Reproduction Authors
// The benchmark's three workloads, each run as "episodes": one episode
// spawns a fresh `octopus_cli serve` (one set-up sample), drives it over
// loopback from this process for a fixed amount of work, collects the
// server's public replies (RESULT batch stats, STATS, /metrics, the
// flight-recorder dump when traced), and stops it.
//
//   lockstep  — in-memory + plasticity deformer, default retention (spill
//               on). A cycle is STEP(1) on the control connection, then 3
//               monitor connections each send one 16-box Fig. 5 A batch
//               at the new epoch; closed loop, fixed cycles per episode.
//   outofcore — static paged server, 256 KB pool over a hilbert OCT2
//               snapshot; 4 closed-loop connections send 22-box Fig. 5 C
//               batches.
//   history   — in-memory, 2 resident / 64 history epochs, sidecar in the
//               work directory. An open-loop stepper at 20 steps/s and 2
//               closed-loop readers sending 4-box Fig. 5 B batches at an
//               epoch 8-48 steps back (spilled, so the sidecar reloads).
#ifndef OCTOBENCH_WORKLOADS_H_
#define OCTOBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/aabb.h"
#include "harness.h"
#include "mesh/types.h"
#include "obs/trace.h"
#include "server/protocol.h"
#include "sim/deformer_spec.h"
#include "sim/workload.h"

namespace octobench {

enum class Workload { kLockstep, kOutOfCore, kHistory };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload workload);

/// Everything an episode needs; built once per run from the seed.
struct Inputs {
  Workload workload = Workload::kLockstep;
  std::string cli;            ///< octopus_cli binary
  std::string work_dir;       ///< scratch files (sidecars) go here
  std::string mesh_path;      ///< OCT1 mesh (lockstep, history)
  std::string snapshot_path;  ///< OCT2 hilbert snapshot (outofcore)
  size_t pool_bytes = 256u << 10;
  octopus::DeformerSpec spec;  ///< plasticity, amplitude resolved
  const octopus::QueryGenerator* generator = nullptr;
  uint64_t seed = 0;
  double episode_seconds = 1.0;  ///< outofcore / history load time
  int lockstep_cycles = 16;      ///< lockstep cycles per episode
};

/// A RESULT kept for the correctness check, outside the timed region.
struct AnswerSample {
  uint32_t step = 0;  ///< epoch step the server stamped on the RESULT
  std::vector<octopus::AABB> boxes;
  std::vector<std::vector<octopus::VertexId>> results;
};

/// RESULT batch stats apportioned to the requests that shared the batch
/// (each request carries its coalesced batch's stats, so dividing by
/// `batch_requests` sums back to per-batch totals).
struct EngineShare {
  double probe_nanos = 0, walk_nanos = 0, crawl_nanos = 0, merge_nanos = 0;
  double probed_vertices = 0, walk_invocations = 0, walk_vertices = 0;
  double crawl_edges = 0, result_vertices = 0;
  double page_hits = 0, page_misses = 0, lease_hits = 0,
         pages_distinct = 0;
  uint64_t requests = 0;
  uint64_t queries = 0;  ///< boxes in these requests

  void Add(const octopus::server::BatchStatsWire& stats, size_t queries);
  void Merge(const EngineShare& other);
};

/// What one episode measured.
struct EpisodeResult {
  bool traced = false;
  double steal_share = 0;  ///< CPU time the hypervisor stole, /proc/stat
  double setup_s = 0;     ///< spawn -> first WELCOME
  double measured_s = 0;  ///< wall of the timed region
  uint64_t attempted = 0, failed = 0;
  uint64_t queries = 0;    ///< boxes answered in the timed region
  /// The closed loop: `actors` (the lockstep cycle loop; the outofcore
  /// connections; the history readers) each answer
  /// `queries_per_iteration` boxes per iteration (a lockstep cycle, a
  /// batch round trip). `RateAt` is the throughput they reach at a
  /// given iteration time.
  int actors = 0;
  double queries_per_iteration = 0;
  double RateAt(double iteration_ms) const {
    return iteration_ms > 0 ? actors * queries_per_iteration * 1e3 /
                                  iteration_ms
                            : 0.0;
  }
  /// The closed-loop iterations: `cycle_ms` on lockstep, `query_ms` on
  /// outofcore, `hist_query_ms` on history.
  const Samples& iteration_ms() const;
  uint64_t wrong_epoch = 0;  ///< RESULTs stamped with the wrong epoch
  Samples query_ms;        ///< current-epoch batch round trips
  Samples hist_query_ms;   ///< historical batch round trips
  Samples step_ms;         ///< STEP round trips (history: from due time)
  Samples stepper_lag_ms;  ///< open-loop stepper send delay
  Samples cycle_ms;        ///< lockstep cycles
  uint64_t cycles = 0;
  EngineShare current, historical;
  octopus::server::ServerStatsWire stats;
  double resident_epoch_mb = 0;
  double rss_peak_mb = 0;
  int64_t sidecar_bytes = 0;  ///< before stop; 0 when none
  bool cleaned_up = true;     ///< server exited 0, sidecar removed
  std::vector<AnswerSample> answers;
  // Traced episodes only.
  std::vector<octopus::obs::QueryTraceRecord> trace;
  std::vector<octopus::obs::ClientCallSpan> client_spans;
  std::vector<Span> spans;
  std::string error;  ///< first failure, for the report
};

/// Runs episode `episode` (seeds its boxes) of `in.workload`.
EpisodeResult RunEpisode(const Inputs& in, int episode, bool traced);

}  // namespace octobench

#endif  // OCTOBENCH_WORKLOADS_H_
