// Copyright 2026 The OCTOPUS Reproduction Authors
// Per-phase statistics of the OCTOPUS executor (probe / walk / crawl).
// Lives in its own header so the engine layer's `ExecutionContext` can
// hold a thread-local copy without pulling in the executor itself.
#ifndef OCTOPUS_OCTOPUS_PHASE_STATS_H_
#define OCTOPUS_OCTOPUS_PHASE_STATS_H_

#include <cstddef>
#include <cstdint>

#include "common/stats_fields.h"
#include "storage/page.h"

namespace octopus {

/// The engine's own counters (page I/O lives in `PhaseStats::page_io`),
/// one line each:
///   WIRE|LOCAL(type, name, merge rule, /metrics unit, /metrics name, help)
/// WIRE lines ride every RESULT batch-stats block, in line order.
///
/// `merge_nanos` is timed on the calling thread by
/// `engine::ContextPool::MergeStats`, so it lands in the aggregate, never
/// in a context-local instance, and is zero for single-query paths that
/// never fold. `stale_steps` is the epoch step of a versioned backend (0
/// for a static mesh): the index is never rebuilt on deformation — the
/// paper's point — and the max is the most-stale state a merged span ran
/// against.
// clang-format off
#define OCTOPUS_PHASE_FIELDS(WIRE, LOCAL) \
  WIRE(int64_t, probe_nanos, kSum, kNanos, "octopus_engine_probe_seconds_total", "Surface-probe phase wall clock.") \
  WIRE(int64_t, walk_nanos, kSum, kNanos, "octopus_engine_walk_seconds_total", "Directed-walk phase wall clock.") \
  WIRE(int64_t, crawl_nanos, kSum, kNanos, "octopus_engine_crawl_seconds_total", "Crawl phase wall clock.") \
  WIRE(int64_t, merge_nanos, kSum, kNanos, "octopus_engine_merge_seconds_total", "Batch-end stats-merge wall clock.") \
  WIRE(size_t, queries, kSum, kNone, "", "Queries executed.") \
  WIRE(size_t, probed_vertices, kSum, kNone, "", "Surface vertices distance-tested by the probe.") \
  WIRE(size_t, walk_invocations, kSum, kNone, "", "Queries that needed a directed walk.") \
  WIRE(size_t, walk_vertices, kSum, kNone, "", "Vertices expanded during walks.") \
  WIRE(size_t, crawl_edges, kSum, kNone, "", "Adjacency entries inspected.") \
  WIRE(size_t, result_vertices, kSum, kNone, "", "Vertices returned.") \
  LOCAL(size_t, stale_steps, kMax, kNone, "", "Simulation steps since the surface index was built.")
// clang-format on

/// \brief Accumulated per-phase statistics across queries.
///
/// Thread-safety invariant: a `PhaseStats` instance is never shared
/// between concurrently executing queries. During a parallel batch each
/// execution context accumulates into its own local instance; the locals
/// are merged (`Merge`) into the index-level aggregate on the calling
/// thread after all workers have joined, in deterministic shard order.
struct PhaseStats {
  OCTOPUS_PHASE_FIELDS(OCTOPUS_STATS_DECLARE, OCTOPUS_STATS_DECLARE)
  /// Page-I/O counters of out-of-core execution (all zero when queries
  /// run over the in-memory accessor). Merged in shard order like every
  /// other counter; see `storage::PageIOStats` for the determinism
  /// caveat under a shared pool.
  storage::PageIOStats page_io;

  void Reset() { *this = PhaseStats{}; }

  /// Adds `other`'s counters into this instance (batch-end merge).
  void Merge(const PhaseStats& other) {
    OCTOPUS_PHASE_FIELDS(OCTOPUS_STATS_MERGE, OCTOPUS_STATS_MERGE)
    page_io.Merge(other.page_io);
  }

  int64_t TotalNanos() const {
    return probe_nanos + walk_nanos + crawl_nanos + merge_nanos;
  }
};

}  // namespace octopus

#endif  // OCTOPUS_OCTOPUS_PHASE_STATS_H_
