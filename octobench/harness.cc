// Copyright 2026 The OCTOPUS Reproduction Authors
#include "harness.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

extern char** environ;

namespace octobench {

using octopus::Result;
using octopus::Status;

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Samples ---

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

void Samples::Sort() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

namespace {

/// 1-based nearest rank of quantile `q` among `n` samples.
size_t NearestRank(double q, size_t n) {
  const size_t rank = static_cast<size_t>(std::ceil(q * n - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Format(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

}  // namespace

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  Sort();
  return values_[NearestRank(q, values_.size()) - 1];
}

size_t Samples::Beyond(double q) const {
  if (values_.empty()) return 0;
  return values_.size() - NearestRank(q, values_.size());
}

Metric MedianMetric(const std::string& name, const Samples& samples,
                    const std::string& unit) {
  return Metric{name, samples.Quantile(0.5), unit, samples.size(),
                Format("median of %zu", samples.size())};
}

Metric TailMetric(const std::string& name, const Samples& samples,
                  double q, const std::string& unit) {
  const size_t n = samples.size();
  const size_t rank = n == 0 ? 0 : NearestRank(q, n);
  const size_t beyond = samples.Beyond(q);
  return Metric{name, samples.Quantile(q), unit, n,
                Format("rank %zu/%zu (%.2fth pct), %zu beyond%s", rank, n,
                       n == 0 ? 0.0 : 100.0 * rank / n, beyond,
                       beyond < 10 ? " - UNDER-SAMPLED" : "")};
}

Metric RatioMetric(const std::string& name, double numerator,
                   double denominator, const std::string& unit,
                   const std::string& numerator_label,
                   const std::string& denominator_label) {
  const double value = denominator == 0.0 ? 0.0 : numerator / denominator;
  return Metric{name, value, unit,
                static_cast<uint64_t>(std::max(0.0, denominator)),
                Format("%.6g %s / %.6g %s", numerator,
                       numerator_label.c_str(), denominator,
                       denominator_label.c_str())};
}

// --- ServerProcess ---

Result<std::unique_ptr<ServerProcess>> ServerProcess::Spawn(
    const std::vector<std::string>& argv, int64_t timeout_nanos) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    return Status::IOError(std::string("pipe: ") + std::strerror(errno));
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    return Status::IOError(std::string("spawn ") + argv[0] + ": " +
                           std::strerror(rc));
  }
  std::unique_ptr<ServerProcess> proc(new ServerProcess());
  proc->pid_ = pid;
  proc->stdout_fd_ = fds[0];

  const bool wants_metrics =
      std::find(argv.begin(), argv.end(), "--metrics-port") != argv.end();
  const int64_t deadline = NowNanos() + timeout_nanos;
  while (true) {
    const size_t port_at = proc->output_.find(" on port ");
    const size_t nl = port_at == std::string::npos
                          ? std::string::npos
                          : proc->output_.find('\n', port_at);
    if (nl != std::string::npos && proc->port_ == 0) {
      proc->port_ = static_cast<uint16_t>(
          std::atoi(proc->output_.c_str() + port_at + 9));
    }
    if (proc->port_ != 0 && wants_metrics && proc->metrics_port_ < 0) {
      const size_t intro = proc->output_.find("introspection: http://");
      const size_t brace = intro == std::string::npos
                               ? std::string::npos
                               : proc->output_.find('{', intro);
      if (brace != std::string::npos) {
        const size_t colon = proc->output_.rfind(':', brace);
        proc->metrics_port_ = std::atoi(proc->output_.c_str() + colon + 1);
      }
    }
    if (proc->port_ != 0 && (!wants_metrics || proc->metrics_port_ >= 0)) {
      return proc;
    }
    const int64_t left = deadline - NowNanos();
    if (left <= 0) return Status::IOError("server banner timed out");
    if (!proc->ReadSome(left)) {
      return Status::IOError("server exited before serving: " +
                             proc->output_);
    }
  }
}

bool ServerProcess::ReadSome(int64_t timeout_nanos) {
  if (stdout_fd_ < 0) return false;
  pollfd pfd{stdout_fd_, POLLIN, 0};
  const int ms = static_cast<int>(std::max<int64_t>(1, timeout_nanos / 1000000));
  if (poll(&pfd, 1, ms) <= 0) return true;  // timeout: nothing yet
  char buf[4096];
  const ssize_t n = read(stdout_fd_, buf, sizeof(buf));
  if (n <= 0) {
    close(stdout_fd_);
    stdout_fd_ = -1;
    return false;
  }
  output_.append(buf, static_cast<size_t>(n));
  return true;
}

double ServerProcess::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

Status ServerProcess::Stop(int64_t timeout_nanos) {
  if (pid_ <= 0) return Status::OK();
  kill(pid_, SIGINT);
  const int64_t deadline = NowNanos() + timeout_nanos;
  int wstatus = 0;
  bool exited = false;
  while (NowNanos() < deadline) {
    if (waitpid(pid_, &wstatus, WNOHANG) == pid_) {
      exited = true;
      break;
    }
    ReadSome(10'000'000);
  }
  if (!exited) {
    kill(pid_, SIGKILL);
    waitpid(pid_, &wstatus, 0);
  }
  pid_ = -1;
  while (ReadSome(100'000'000)) {
  }
  if (!exited) return Status::IOError("server ignored SIGINT; killed");
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Status::IOError("server exited abnormally (status " +
                           std::to_string(wstatus) + ")");
  }
  return Status::OK();
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }
  if (stdout_fd_ >= 0) close(stdout_fd_);
}

// --- /metrics ---

Result<std::string> HttpGet(int port, const std::string& path) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IOError("socket failed");
  timeval tv{5, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return Status::IOError("connect to introspection port failed");
  }
  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
  if (send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(request.size())) {
    close(fd);
    return Status::IOError("send to introspection port failed");
  }
  std::string response;
  char buf[8192];
  ssize_t n = 0;
  while ((n = recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  const size_t body = response.find("\r\n\r\n");
  if (response.rfind("HTTP/1.", 0) != 0 || body == std::string::npos ||
      response.find(" 200 ") > body) {
    return Status::IOError("bad introspection response for " + path);
  }
  return response.substr(body + 4);
}

double ScrapeValue(const std::string& text, const std::string& family) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.size() > family.size() && line.rfind(family, 0) == 0 &&
        line[family.size()] == ' ') {
      return std::strtod(line.c_str() + family.size() + 1, nullptr);
    }
  }
  return 0.0;
}

// --- spans ---

std::atomic<uint64_t> SpanLog::next_id_{1};

uint64_t SpanLog::Begin(const char* name, uint64_t parent_id) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.span_id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent_id = parent_id;
  span.track = track_;
  span.start_nanos = NowNanos();
  spans_.push_back(span);
  return span.span_id;
}

void SpanLog::End(uint64_t id, uint64_t request_id) {
  if (!enabled_ || id == 0) return;
  const int64_t now = NowNanos();
  // Spans close innermost-first, so the open span is near the back.
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->span_id == id) {
      it->end_nanos = now;
      it->request_id = request_id;
      return;
    }
  }
}

std::string ChromeSpansJson(const std::vector<Span>& spans) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  char buf[512];
  for (const Span& s : spans) {
    if (s.end_nanos <= s.start_nanos) continue;  // unclosed or empty
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span_id\":%" PRIu64
                  ",\"parent\":%" PRIu64 ",\"request_id\":%" PRIu64 "}}",
                  first ? "" : ",\n", s.name, s.track,
                  s.start_nanos / 1e3, (s.end_nanos - s.start_nanos) / 1e3,
                  s.span_id, s.parent_id, s.request_id);
    out += buf;
    first = false;
  }
  out += "\n]}\n";
  return out;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

int64_t FileSize(const std::string& path) {
  struct stat st;
  if (stat(path.c_str(), &st) != 0) return -1;
  return static_cast<int64_t>(st.st_size);
}

}  // namespace octobench
