// Copyright 2026 The OCTOPUS Reproduction Authors
// Plumbing of the end-to-end benchmark: sample sets with nearest-rank
// quantiles, the child `octopus_cli serve` process, a /metrics scrape,
// the benchmark's own span log and the metric report it prints.
#ifndef OCTOBENCH_HARNESS_H_
#define OCTOBENCH_HARNESS_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace octobench {

/// Monotonic nanoseconds. steady_clock is CLOCK_MONOTONIC on Linux — the
/// clock the server stamps its flight-recorder records with, so client
/// spans and server records share one timeline.
int64_t NowNanos();

/// \brief Observations of one quantity, with nearest-rank quantiles.
class Samples {
 public:
  void Add(double value) {
    values_.push_back(value);
    sorted_ = false;
  }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  /// Nearest-rank quantile, `q` in (0, 1]; 0 when empty.
  double Quantile(double q) const;
  /// Samples ranked above the nearest-rank `q` quantile: the support of
  /// a tail estimate (the choosing-metrics rule asks for >= 10).
  size_t Beyond(double q) const;

 private:
  void Sort() const;
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

/// \brief One printed metric: value, unit, and what it rests on.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;  ///< observations behind the value
  std::string basis;     ///< percentile reached, or the ratio's base
};

/// Median metric of `samples` (basis names the sample count).
Metric MedianMetric(const std::string& name, const Samples& samples,
                    const std::string& unit);
/// Tail metric at `q`, with the rank actually reached and its support.
Metric TailMetric(const std::string& name, const Samples& samples,
                  double q, const std::string& unit);
/// `numerator / denominator` (0 when the denominator is 0), with both
/// recorded as the basis.
Metric RatioMetric(const std::string& name, double numerator,
                   double denominator, const std::string& unit,
                   const std::string& numerator_label,
                   const std::string& denominator_label);

/// \brief A child `octopus_cli serve`, stdout on a pipe.
class ServerProcess {
 public:
  /// Starts `argv` (argv[0] is the binary) and waits up to
  /// `timeout_nanos` for its "on port N" banner — and, when the command
  /// line has --metrics-port, for the introspection line after it.
  static octopus::Result<std::unique_ptr<ServerProcess>> Spawn(
      const std::vector<std::string>& argv, int64_t timeout_nanos);
  /// Kills and reaps the child if `Stop` never did.
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }
  int metrics_port() const { return metrics_port_; }
  /// Peak resident set (VmHWM) of the live child, in MB.
  double PeakRssMb() const;
  /// Graceful stop: SIGINT, then wait for exit (SIGKILL after
  /// `timeout_nanos`). OK only when the child exited 0 on its own.
  octopus::Status Stop(int64_t timeout_nanos);

 private:
  ServerProcess() = default;
  /// Reads what is available (waiting at most `timeout_nanos`); false
  /// on EOF.
  bool ReadSome(int64_t timeout_nanos);

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
  int metrics_port_ = -1;
  std::string output_;
};

/// Body of `GET <path>` from the introspection endpoint on `port`.
octopus::Result<std::string> HttpGet(int port, const std::string& path);
/// Value of an unlabelled sample `family` in a /metrics text body
/// (0 when absent — e.g. epoch gauges on a static server).
double ScrapeValue(const std::string& text, const std::string& family);

/// \brief One benchmark-side span around a call into the system.
struct Span {
  const char* name = "";
  uint64_t span_id = 0;
  uint64_t parent_id = 0;   ///< 0 = root
  uint64_t request_id = 0;  ///< the OCTP request id, 0 if none
  uint32_t track = 0;       ///< connection index (the trace track)
  int64_t start_nanos = 0;  ///< NowNanos() clock
  int64_t end_nanos = 0;
};

/// \brief Span log of one connection (used by one thread at a time);
/// ids are unique across logs.
class SpanLog {
 public:
  SpanLog(bool enabled, uint32_t track) : enabled_(enabled),
                                          track_(track) {}
  /// Opens a span and returns its id (0 when disabled).
  uint64_t Begin(const char* name, uint64_t parent_id);
  /// Closes span `id` with the request id it carried.
  void End(uint64_t id, uint64_t request_id = 0);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  static std::atomic<uint64_t> next_id_;
  bool enabled_;
  uint32_t track_;
  std::vector<Span> spans_;
};

/// Chrome trace-event JSON of `spans` — the format `octopus_cli trace
/// dump` emits, on the same monotonic clock, so the two files open side
/// by side in chrome://tracing or Perfetto.
std::string ChromeSpansJson(const std::vector<Span>& spans);

/// Writes `text` to `path`; false on any I/O error.
bool WriteFile(const std::string& path, const std::string& text);
/// Size of `path` in bytes, -1 when it does not exist.
int64_t FileSize(const std::string& path);

}  // namespace octobench

#endif  // OCTOBENCH_HARNESS_H_
