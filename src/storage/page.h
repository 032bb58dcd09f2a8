// Copyright 2026 The OCTOPUS Reproduction Authors
// Fundamental types of the out-of-core storage engine: page identifiers
// and the per-context page-I/O counters. The paper (Sec. IV-H1) evaluates
// OCTOPUS on disk-resident meshes where the cost that matters is *page
// accesses*; everything in storage/ exists to make that cost measurable.
#ifndef OCTOPUS_STORAGE_PAGE_H_
#define OCTOPUS_STORAGE_PAGE_H_

#include <cstddef>
#include <cstdint>
#include <limits>

#include "common/stats_fields.h"

namespace octopus::storage {

/// Index of a fixed-size page within a snapshot file. Page 0 is the
/// superblock; data sections start at page boundaries after it.
using PageId = uint32_t;

inline constexpr PageId kInvalidPageId = std::numeric_limits<PageId>::max();

/// Default snapshot page size. 4 KiB matches the common filesystem block
/// size; tests use smaller pages to force heavy paging on small meshes.
inline constexpr size_t kDefaultPageBytes = 4096;

/// The page-I/O counters, one line each:
///   WIRE|LOCAL(type, name, merge rule, /metrics unit, /metrics name, help)
/// WIRE lines ride the OCTP wire in line order: in the RESULT batch-stats
/// block after the phase counters, and in STATS. `lease_revocations`
/// (leases dropped before batch end under the per-accessor lease cap or
/// pool pressure) is an operator-facing signal, not a result property.
// clang-format off
#define OCTOPUS_PAGE_IO_FIELDS(WIRE, LOCAL) \
  WIRE(size_t, page_hits, kSum, kCount, "octopus_page_hits_total", "Priced page accesses served by the pool.") \
  WIRE(size_t, page_misses, kSum, kCount, "octopus_page_misses_total", "Priced page accesses that read from disk.") \
  WIRE(size_t, page_evictions, kSum, kCount, "octopus_page_evictions_total", "Pages evicted during query execution.") \
  WIRE(size_t, lease_hits, kSum, kCount, "octopus_lease_hits_total", "Reads served free through a held lease.") \
  WIRE(size_t, pages_leased, kSum, kCount, "octopus_pages_leased_total", "Lease acquisitions (first touch per batch).") \
  WIRE(size_t, pages_distinct, kSum, kCount, "octopus_pages_distinct_total", "Distinct pages touched across batches.") \
  LOCAL(size_t, lease_revocations, kSum, kCount, "octopus_lease_revocations_total", "Leases dropped before batch end (pool pressure).")
// clang-format on

/// \brief Per-context page-I/O counters.
///
/// Each `engine::ExecutionContext` accumulates its own instance (inside
/// `PhaseStats`), merged into the index-level aggregate in deterministic
/// shard order at batch end, exactly like the phase counters. The values
/// themselves are deterministic for single-threaded execution; with a
/// shared buffer pool and multiple threads the hit/miss split depends on
/// interleaving (the totals still balance: hits + misses = accesses).
///
/// With leased page references (see storage/paged_mesh.h) a page is
/// priced into hits/misses once when its lease is acquired; every later
/// read through the held lease counts only `lease_hits`. `PageAccesses()`
/// therefore approximates *distinct pages touched* per batch instead of
/// raw read calls; `pages_distinct` records the exact per-shard distinct
/// count (summed over shards on merge, so overlapping shards may count a
/// page once each).
struct PageIOStats {
  OCTOPUS_PAGE_IO_FIELDS(OCTOPUS_STATS_DECLARE, OCTOPUS_STATS_DECLARE)

  void Reset() { *this = PageIOStats{}; }

  void Merge(const PageIOStats& other) {
    OCTOPUS_PAGE_IO_FIELDS(OCTOPUS_STATS_MERGE, OCTOPUS_STATS_MERGE)
  }

  size_t PageAccesses() const { return page_hits + page_misses; }
};

}  // namespace octopus::storage

#endif  // OCTOPUS_STORAGE_PAGE_H_
