// Copyright 2026 The OCTOPUS Reproduction Authors
// Typed metric registry with a Prometheus text-exposition writer
// (format 0.0.4: `# HELP` / `# TYPE` comment pairs, one sample line per
// series, histograms as cumulative `_bucket{le="..."}` series plus
// `_sum`/`_count`).
//
// Usage model is build-render-discard: the scrape handler constructs a
// fresh registry, adds every metric from the live single-writer
// sources (`ServerMetrics`, `EpochStore`, `BufferManager`, ...), and
// renders it. No retained state means no second writer and no staleness
// — the scrape sees exactly the counters of the moment it was served,
// the same values an OCTP STATS frame would carry (parity-tested in
// tests/test_obs.cc).
#ifndef OCTOPUS_OBS_METRICS_REGISTRY_H_
#define OCTOPUS_OBS_METRICS_REGISTRY_H_

#include <cstdint>
#include <span>
#include <string>

namespace octopus::obs {

/// /metrics rendering of a stats-table counter (the `/metrics unit`
/// column of the field tables, see common/stats_fields.h).
enum class CounterUnit {
  kNone,   ///< not exported
  kCount,  ///< plain counter
  kNanos,  ///< nanosecond total, exported as a `_seconds_total` counter
};

/// \brief Append-only collection of typed metrics rendering to
/// Prometheus text exposition. Metric names must match
/// `[a-zA-Z_:][a-zA-Z0-9_:]*` (validated by tools/check_metrics.py in
/// CI; the registry itself trusts its callers).
class MetricsRegistry {
 public:
  /// Monotone counter. By convention the name ends in `_total`.
  void AddCounter(const std::string& name, const std::string& help,
                  uint64_t value);

  /// Monotone time counter in seconds (Prometheus base unit). By
  /// convention the name ends in `_seconds_total`.
  void AddCounterSeconds(const std::string& name, const std::string& help,
                         double seconds);

  /// A stats-table counter rendered by its `unit` (nothing for kNone).
  template <typename T>
  void AddTableCounter(CounterUnit unit, const std::string& name,
                       const std::string& help, T value) {
    if (unit == CounterUnit::kCount) {
      AddCounter(name, help, static_cast<uint64_t>(value));
    } else if (unit == CounterUnit::kNanos) {
      AddCounterSeconds(name, help, static_cast<double>(value) * 1e-9);
    }
  }

  /// Point-in-time value.
  void AddGauge(const std::string& name, const std::string& help,
                double value);

  /// Histogram over explicit nanosecond buckets: `bucket_counts[i]`
  /// holds samples whose value is <= `upper_bounds_nanos[i]` and above
  /// the previous bound (the repo's `server::LatencyHistogram` supplies
  /// its log-linear bounds via `BucketUpperBounds()`). Rendered as
  /// cumulative `_bucket` series with `le` in seconds, empty buckets
  /// elided (a zero-count bucket repeats the cumulative value of its
  /// predecessor, so eliding it loses nothing and keeps the ~1000-line
  /// worst case off the scrape), plus the implicit `+Inf` bucket,
  /// `_sum` and `_count` (both totals derived from `bucket_counts`).
  void AddNanosHistogram(const std::string& name, const std::string& help,
                         std::span<const uint64_t> bucket_counts,
                         std::span<const uint64_t> upper_bounds_nanos,
                         double sum_seconds);

  /// The accumulated exposition text.
  const std::string& ExpositionText() const { return text_; }

 private:
  void Header(const std::string& name, const std::string& help,
              const char* type);

  std::string text_;
};

}  // namespace octopus::obs

#endif  // OCTOPUS_OBS_METRICS_REGISTRY_H_
