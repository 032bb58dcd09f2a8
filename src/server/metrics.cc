// Copyright 2026 The OCTOPUS Reproduction Authors
#include "server/metrics.h"

#include <bit>
#include <cmath>

namespace octopus::server {
namespace {

/// CAS-max: lossless under concurrent writers.
void AtomicMax(std::atomic<uint64_t>* target, uint64_t value) {
  uint64_t seen = target->load(std::memory_order_relaxed);
  while (value > seen &&
         !target->compare_exchange_weak(seen, value,
                                        std::memory_order_relaxed)) {
  }
}

/// Saturating add: one u64-max sample must not wrap the total.
void AtomicSaturatingAdd(std::atomic<uint64_t>* target, uint64_t value) {
  uint64_t sum = target->load(std::memory_order_relaxed);
  for (;;) {
    const uint64_t next = sum + value < sum ? ~uint64_t{0} : sum + value;
    if (target->compare_exchange_weak(sum, next,
                                      std::memory_order_relaxed)) {
      break;
    }
  }
}

}  // namespace

int LatencyHistogram::BucketIndex(uint64_t nanos) {
  if (nanos < kSubBuckets) return static_cast<int>(nanos);
  const int octave = std::bit_width(nanos) - 1;  // floor(log2), >= 4
  const int sub = static_cast<int>(
      (nanos >> (octave - kFirstOctave)) & (kSubBuckets - 1));
  const int index =
      kSubBuckets + (octave - kFirstOctave) * kSubBuckets + sub;
  return index < kBuckets ? index : kBuckets - 1;
}

uint64_t LatencyHistogram::BucketUpperNanos(int index) {
  if (index < kSubBuckets) return static_cast<uint64_t>(index);
  if (index >= kBuckets - 1) return ~uint64_t{0};  // open-ended top
  const int octave = kFirstOctave + (index - kSubBuckets) / kSubBuckets;
  const int sub = (index - kSubBuckets) % kSubBuckets;
  const uint64_t base = uint64_t{1} << octave;
  const uint64_t width = uint64_t{1} << (octave - kFirstOctave);
  return base + static_cast<uint64_t>(sub + 1) * width - 1;
}

std::vector<uint64_t> LatencyHistogram::BucketUpperBounds() {
  std::vector<uint64_t> bounds(kBuckets);
  for (int i = 0; i < kBuckets; ++i) bounds[i] = BucketUpperNanos(i);
  return bounds;
}

void LatencyHistogram::Record(uint64_t nanos) {
  buckets_[BucketIndex(nanos)].fetch_add(1, std::memory_order_relaxed);
  AtomicMax(&max_nanos_, nanos);
  AtomicSaturatingAdd(&sum_nanos_, nanos);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (int i = 0; i < kBuckets; ++i) {
    const uint64_t n = other.buckets_[i].load(std::memory_order_relaxed);
    if (n != 0) buckets_[i].fetch_add(n, std::memory_order_relaxed);
  }
  AtomicMax(&max_nanos_, other.max_nanos());
  AtomicSaturatingAdd(&sum_nanos_, other.sum_nanos());
}

uint64_t LatencyHistogram::count() const {
  uint64_t total = 0;
  for (const auto& b : buckets_) {
    total += b.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<uint64_t> LatencyHistogram::bucket_counts() const {
  std::vector<uint64_t> counts(kBuckets);
  for (int i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

void LatencyHistogram::CopyFrom(const LatencyHistogram& other) {
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[i].store(other.buckets_[i].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  }
  max_nanos_.store(other.max_nanos(), std::memory_order_relaxed);
  sum_nanos_.store(other.sum_nanos(), std::memory_order_relaxed);
}

uint64_t LatencyHistogram::PercentileNanos(double p) const {
  const std::vector<uint64_t> counts = bucket_counts();
  uint64_t n = 0;
  for (uint64_t c : counts) n += c;
  if (n == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  // Rank of the quantile sample, 1-based (nearest-rank definition:
  // ceil(p * n), clamped to [1, n]).
  uint64_t rank =
      static_cast<uint64_t>(std::ceil(p * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  const uint64_t observed_max = max_nanos();
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += counts[i];
    if (seen >= rank) {
      // A bucket's nominal bound can overshoot the samples inside it
      // (and the top bucket is open-ended); report no more than the
      // observed max.
      const uint64_t upper = BucketUpperNanos(i);
      return upper < observed_max ? upper : observed_max;
    }
  }
  return observed_max;
}

void ServerMetrics::CopyFrom(const ServerMetrics& other) {
#define OCTOPUS_COPY_COUNTER(type, name, ...)                 \
  name.store(other.name.load(std::memory_order_relaxed), \
             std::memory_order_relaxed);
  OCTOPUS_SERVER_COUNTERS(OCTOPUS_COPY_COUNTER, OCTOPUS_STATS_SKIP,
                          OCTOPUS_COPY_COUNTER)
  request_latency = other.request_latency;
  loop_stall = other.loop_stall;
  const PhaseStats engine = other.EngineTotal();
  common::MutexLock lock(engine_mu_);
  engine_total = engine;
}

ServerStatsWire ServerMetrics::ToWire() const {
  ServerStatsWire w;
#define OCTOPUS_COUNTER_TO_WIRE(type, name, ...) \
  w.name = this->name.load(std::memory_order_relaxed);
  OCTOPUS_SERVER_COUNTERS(OCTOPUS_COUNTER_TO_WIRE, OCTOPUS_STATS_SKIP,
                          OCTOPUS_STATS_SKIP)
  const PhaseStats engine = EngineTotal();
#define OCTOPUS_PAGE_IO_TO_WIRE(type, name, ...) w.name = engine.page_io.name;
  OCTOPUS_PAGE_IO_FIELDS(OCTOPUS_PAGE_IO_TO_WIRE, OCTOPUS_STATS_SKIP)
  w.connections_active = connections_active();
  w.latency_p50_nanos = request_latency.PercentileNanos(0.50);
  w.latency_p95_nanos = request_latency.PercentileNanos(0.95);
  w.latency_p99_nanos = request_latency.PercentileNanos(0.99);
  return w;
}

}  // namespace octopus::server
