// Copyright 2026 The OCTOPUS Reproduction Authors
#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <thread>

#include "client/remote_client.h"
#include "common/rng.h"

namespace octobench {

namespace {

using octopus::AABB;
using octopus::Rng;
using octopus::client::RemoteClient;
using octopus::server::BatchStatsWire;

constexpr int64_t kSeconds = 1'000'000'000;

// Workload shapes (see workloads.h). Selectivities are the paper's
// Fig. 5 rows as `NeuroscienceBenchmarks()` encodes them.
constexpr int kLockstepMonitors = 3;
constexpr int kLockstepBoxes = 16;       // Fig. 5 A
constexpr int kOutOfCoreConnections = 4;
constexpr int kOutOfCoreBoxes = 22;      // Fig. 5 C
constexpr int kHistoryReaders = 2;
constexpr int kHistoryBoxes = 4;         // Fig. 5 B selectivities
constexpr int kHistoryStepsPerSecond = 20;
constexpr uint32_t kHistoryPreSteps = 56;
constexpr int kHistoryBackMin = 8, kHistoryBackMax = 48;
constexpr int kTraceRingSlots = 16384;
// Pre-generated batches per connection; a longer run wraps around.
constexpr int kBatchPool = 256;
// Every Nth RESULT of a connection is kept for the correctness check
// (sparser where RESULTs are many, so the check stays a few seconds).
uint64_t AnswerEvery(Workload w) { return w == Workload::kLockstep ? 8 : 32; }

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// `count` batches of `boxes` boxes at the Fig. 5 row's selectivities.
std::vector<std::vector<AABB>> MakeBatches(
    const octopus::QueryGenerator& gen, const octopus::BenchmarkSpec& row,
    int count, int boxes, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<AABB>> batches(count);
  for (auto& batch : batches) {
    batch = gen.MakeQueries(&rng, boxes, row.selectivity_min,
                            row.selectivity_max);
  }
  return batches;
}

/// One load-generator connection and what it observed.
struct Connection {
  Connection(bool traced, uint32_t id, uint64_t answer_every)
      : spans(traced, id), answer_every(answer_every) {}

  std::unique_ptr<RemoteClient> client;
  SpanLog spans;
  uint64_t answer_every;
  Samples latency_ms;
  EngineShare share;
  std::vector<AnswerSample> answers;
  uint64_t attempted = 0, failed = 0, queries = 0, wrong_epoch = 0;
  uint64_t sent = 0;
  std::string error;

  void Fail(const std::string& what) {
    ++failed;
    if (error.empty()) error = what;
  }

  /// One timed batch round trip. `expect_step`/`expect_epoch` (when
  /// non-negative / non-zero) is the epoch stamp the RESULT must carry.
  /// Returns false on failure.
  bool Batch(const std::vector<AABB>& boxes, uint64_t epoch,
             uint64_t parent_span, int64_t expect_step,
             uint64_t expect_epoch) {
    ++attempted;
    const uint64_t span = spans.Begin(epoch == 0 ? "batch" : "hist_batch",
                                      parent_span);
    const int64_t t0 = NowNanos();
    auto result = client->ExecuteBatch(boxes, epoch);
    const int64_t t1 = NowNanos();
    if (!result.ok()) {
      spans.End(span);
      Fail("batch: " + result.status().ToString());
      return false;
    }
    const BatchStatsWire& stats = result.Value().stats;
    spans.End(span, client->spans().empty()
                        ? 0
                        : client->spans().back().request_id);
    latency_ms.Add((t1 - t0) / 1e6);
    queries += boxes.size();
    share.Add(stats, boxes.size());
    if ((expect_step >= 0 && stats.epoch.step != expect_step) ||
        (expect_epoch != 0 && stats.epoch.epoch != expect_epoch)) {
      ++wrong_epoch;
    }
    if (sent++ % answer_every == 0) {
      answers.push_back(AnswerSample{
          stats.epoch.step, boxes,
          std::move(result.MoveValue().results.per_query)});
    }
    return true;
  }
};

/// Start/stop signal shared by the load threads of one episode.
class Gate {
 public:
  /// Lockstep: opens cycle `cycle` (1-based) for every monitor.
  void Open(int cycle, uint32_t step, uint64_t parent_span) {
    std::lock_guard<std::mutex> lock(mu_);
    cycle_ = cycle;
    step_ = step;
    parent_span_ = parent_span;
    done_ = 0;
    cv_.notify_all();
  }
  /// Waits for a cycle after `seen`; false once closed.
  bool Wait(int seen, int* cycle, uint32_t* step, uint64_t* parent_span) {
    std::unique_lock<std::mutex> lock(mu_);
    while (!closed_ && cycle_ <= seen) cv_.wait(lock);
    if (closed_) return false;
    *cycle = cycle_;
    *step = step_;
    *parent_span = parent_span_;
    return true;
  }
  void Done() {
    std::lock_guard<std::mutex> lock(mu_);
    ++done_;
    cv_.notify_all();
  }
  void WaitAllDone(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    while (done_ < n) cv_.wait(lock);
  }
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int cycle_ = 0;
  uint32_t step_ = 0;
  uint64_t parent_span_ = 0;
  int done_ = 0;
  bool closed_ = false;
};

/// Joins every thread on scope exit, whatever path leaves it.
struct ThreadGroup {
  std::vector<std::thread> threads;
  ~ThreadGroup() {
    for (auto& t : threads) {
      if (t.joinable()) t.join();
    }
  }
};

std::string FormatAmplitude(float amplitude) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", amplitude);
  return buf;
}

std::vector<std::string> ServerArgv(const Inputs& in, bool traced,
                                    const std::string& spill_path) {
  std::vector<std::string> argv = {in.cli, "serve"};
  if (in.workload == Workload::kOutOfCore) {
    argv.insert(argv.end(), {in.snapshot_path, "--paged", "--pool-bytes",
                             std::to_string(in.pool_bytes)});
  } else {
    argv.insert(argv.end(),
                {in.mesh_path, "--deform", "plasticity", "--amplitude",
                 FormatAmplitude(in.spec.amplitude), "--seed",
                 std::to_string(in.spec.seed)});
  }
  if (in.workload == Workload::kHistory) {
    argv.insert(argv.end(), {"--retention-epochs", "2", "--history-epochs",
                             "64", "--spill-path", spill_path});
  }
  argv.insert(argv.end(),
              {"--port", "0", "--metrics-port", "0", "--trace-ring",
               std::to_string(traced ? kTraceRingSlots : 0)});
  return argv;
}

octopus::Result<std::unique_ptr<RemoteClient>> Connect(uint16_t port) {
  RemoteClient::Options options;
  options.io_timeout_nanos = 20 * kSeconds;
  return RemoteClient::Connect("127.0.0.1", port, options);
}

/// Lockstep timed region: `cycles` STEP -> 3 x MONITOR cycles.
void RunLockstep(const Inputs& in, int episode, Connection* control,
                 const std::vector<Connection*>& monitors,
                 EpisodeResult* r) {
  const octopus::BenchmarkSpec row = octopus::NeuroscienceBenchmarks()[0];
  std::vector<std::vector<std::vector<AABB>>> boxes;
  for (int m = 0; m < kLockstepMonitors; ++m) {
    boxes.push_back(MakeBatches(*in.generator, row, in.lockstep_cycles,
                                kLockstepBoxes,
                                Mix(in.seed, episode * 16 + m)));
  }
  // Monitor 0 runs on this thread, right after the STEP returns; the
  // others wait at the gate. One fewer wake-up per cycle keeps the load
  // generator's own hand-offs out of the cycle time where it can.
  Gate gate;
  ThreadGroup group;
  for (int m = 1; m < kLockstepMonitors; ++m) {
    group.threads.emplace_back([&, m] {
      Connection& c = *monitors[m];
      int seen = 0, cycle = 0;
      uint32_t step = 0;
      uint64_t parent = 0;
      while (gate.Wait(seen, &cycle, &step, &parent)) {
        seen = cycle;
        c.Batch(boxes[m][cycle - 1], 0, parent, step, 0);
        gate.Done();
      }
    });
  }
  const int64_t start = NowNanos();
  for (int cycle = 1; cycle <= in.lockstep_cycles; ++cycle) {
    const uint64_t cycle_span = control->spans.Begin("cycle", 0);
    const int64_t t0 = NowNanos();
    ++control->attempted;
    const uint64_t step_span = control->spans.Begin("step", cycle_span);
    auto stepped = control->client->Step(1);
    control->spans.End(step_span);
    if (!stepped.ok()) {
      control->Fail("step: " + stepped.status().ToString());
      break;
    }
    r->step_ms.Add((NowNanos() - t0) / 1e6);
    gate.Open(cycle, stepped.Value().step, cycle_span);
    monitors[0]->Batch(boxes[0][cycle - 1], 0, cycle_span,
                       stepped.Value().step, 0);
    gate.WaitAllDone(kLockstepMonitors - 1);
    r->cycle_ms.Add((NowNanos() - t0) / 1e6);
    control->spans.End(cycle_span);
    ++r->cycles;
  }
  r->measured_s = (NowNanos() - start) / 1e9;
  gate.Close();
}

/// Closed-loop connections sending `batches` until `end`.
void ClosedLoop(Connection* c, const std::vector<std::vector<AABB>>& batches,
                int64_t end) {
  for (size_t i = 0; NowNanos() < end; ++i) {
    if (!c->Batch(batches[i % batches.size()], 0, 0, -1, 0)) return;
  }
}

void RunOutOfCore(const Inputs& in, int episode,
                  const std::vector<Connection*>& conns,
                  EpisodeResult* r) {
  const octopus::BenchmarkSpec row = octopus::NeuroscienceBenchmarks()[2];
  std::vector<std::vector<std::vector<AABB>>> boxes;
  for (size_t i = 0; i < conns.size(); ++i) {
    boxes.push_back(MakeBatches(*in.generator, row, kBatchPool,
                                kOutOfCoreBoxes,
                                Mix(in.seed, episode * 16 + i)));
  }
  const int64_t start = NowNanos();
  const int64_t end =
      start + static_cast<int64_t>(in.episode_seconds * kSeconds);
  {
    ThreadGroup group;
    for (size_t i = 1; i < conns.size(); ++i) {
      group.threads.emplace_back(
          [&, i] { ClosedLoop(conns[i], boxes[i], end); });
    }
    ClosedLoop(conns[0], boxes[0], end);
  }
  r->measured_s = (NowNanos() - start) / 1e9;
}

void RunHistory(const Inputs& in, int episode, Connection* control,
                const std::vector<Connection*>& readers,
                EpisodeResult* r) {
  const octopus::BenchmarkSpec row = octopus::NeuroscienceBenchmarks()[1];
  std::vector<std::vector<std::vector<AABB>>> boxes;
  for (size_t i = 0; i < readers.size(); ++i) {
    boxes.push_back(MakeBatches(*in.generator, row, kBatchPool,
                                kHistoryBoxes,
                                Mix(in.seed, episode * 16 + i)));
  }
  // Untimed warm-up: fill the ring until the targets are spilled.
  const uint64_t pre_span = control->spans.Begin("pre_steps", 0);
  auto pre = control->client->Step(kHistoryPreSteps);
  control->spans.End(pre_span);
  if (!pre.ok()) {
    control->Fail("pre-step: " + pre.status().ToString());
    return;
  }
  std::atomic<uint64_t> current_epoch{pre.Value().epoch};
  const int64_t start = NowNanos();
  const int64_t end =
      start + static_cast<int64_t>(in.episode_seconds * kSeconds);
  {
    ThreadGroup group;
    for (size_t i = 0; i < readers.size(); ++i) {
      group.threads.emplace_back([&, i] {
        Connection& c = *readers[i];
        Rng rng(Mix(in.seed, episode * 16 + 8 + i));
        for (size_t k = 0; NowNanos() < end; ++k) {
          const uint64_t back =
              kHistoryBackMin +
              rng.NextBelow(kHistoryBackMax - kHistoryBackMin + 1);
          const uint64_t target =
              current_epoch.load(std::memory_order_acquire) - back;
          if (!c.Batch(boxes[i][k % boxes[i].size()], target, 0, -1,
                       target)) {
            return;
          }
        }
      });
    }
    // Open-loop stepper: step k is due at start + k / rate, and its
    // latency counts from that due time.
    const int64_t period = kSeconds / kHistoryStepsPerSecond;
    for (int64_t due = start + period; due < end; due += period) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      r->stepper_lag_ms.Add((NowNanos() - due) / 1e6);
      ++control->attempted;
      const uint64_t span = control->spans.Begin("step", 0);
      auto stepped = control->client->Step(1);
      control->spans.End(span);
      if (!stepped.ok()) {
        control->Fail("step: " + stepped.status().ToString());
        break;
      }
      r->step_ms.Add((NowNanos() - due) / 1e6);
      current_epoch.store(stepped.Value().epoch, std::memory_order_release);
    }
  }
  r->measured_s = (NowNanos() - start) / 1e9;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w :
       {Workload::kLockstep, Workload::kOutOfCore, Workload::kHistory}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kLockstep:
      return "lockstep";
    case Workload::kOutOfCore:
      return "outofcore";
    case Workload::kHistory:
      return "history";
  }
  return "?";
}

void EngineShare::Add(const BatchStatsWire& s, size_t request_queries) {
  const double w = 1.0 / std::max<uint32_t>(1, s.batch_requests);
  probe_nanos += w * s.probe_nanos;
  walk_nanos += w * s.walk_nanos;
  crawl_nanos += w * s.crawl_nanos;
  merge_nanos += w * s.merge_nanos;
  probed_vertices += w * s.probed_vertices;
  walk_invocations += w * s.walk_invocations;
  walk_vertices += w * s.walk_vertices;
  crawl_edges += w * s.crawl_edges;
  result_vertices += w * s.result_vertices;
  page_hits += w * s.page_hits;
  page_misses += w * s.page_misses;
  lease_hits += w * s.lease_hits;
  pages_distinct += w * s.pages_distinct;
  ++requests;
  queries += request_queries;
}

void EngineShare::Merge(const EngineShare& o) {
  probe_nanos += o.probe_nanos;
  walk_nanos += o.walk_nanos;
  crawl_nanos += o.crawl_nanos;
  merge_nanos += o.merge_nanos;
  probed_vertices += o.probed_vertices;
  walk_invocations += o.walk_invocations;
  walk_vertices += o.walk_vertices;
  crawl_edges += o.crawl_edges;
  result_vertices += o.result_vertices;
  page_hits += o.page_hits;
  page_misses += o.page_misses;
  lease_hits += o.lease_hits;
  pages_distinct += o.pages_distinct;
  requests += o.requests;
  queries += o.queries;
}

const Samples& EpisodeResult::iteration_ms() const {
  if (cycles > 0) return cycle_ms;
  return hist_query_ms.size() > 0 ? hist_query_ms : query_ms;
}

EpisodeResult RunEpisode(const Inputs& in, int episode, bool traced) {
  EpisodeResult r;
  r.traced = traced;
  // Lockstep keeps the CLI's default sidecar path (<input>.<pid>.oct2d);
  // history names one in the work directory.
  std::string spill_path =
      in.workload == Workload::kHistory
          ? in.work_dir + "/history." + std::to_string(episode) + ".oct2d"
          : "";

  SpanLog main_spans(traced, 0);
  const uint64_t setup_span = main_spans.Begin("setup", 0);
  const int64_t spawn_at = NowNanos();
  auto spawned = ServerProcess::Spawn(ServerArgv(in, traced, spill_path),
                                      60 * kSeconds);
  if (!spawned.ok()) {
    r.error = "spawn: " + spawned.status().ToString();
    r.cleaned_up = false;
    ++r.attempted;
    ++r.failed;
    return r;
  }
  std::unique_ptr<ServerProcess> server = spawned.MoveValue();
  if (in.workload == Workload::kLockstep) {
    spill_path = in.mesh_path + "." + std::to_string(server->pid()) +
                 ".oct2d";
  }

  // Connection 0 is the set-up probe and, afterwards, the control
  // connection (lockstep/history) or the first load connection.
  const int n_conns = in.workload == Workload::kLockstep
                          ? 1 + kLockstepMonitors
                      : in.workload == Workload::kOutOfCore
                          ? kOutOfCoreConnections
                          : 1 + kHistoryReaders;
  std::vector<std::unique_ptr<Connection>> conns;
  for (int i = 0; i < n_conns; ++i) {
    conns.push_back(
        std::make_unique<Connection>(traced, i, AnswerEvery(in.workload)));
    const uint64_t connect_span = main_spans.Begin("connect", setup_span);
    auto connected = Connect(server->port());
    main_spans.End(connect_span);
    if (i == 0) {
      r.setup_s = (NowNanos() - spawn_at) / 1e9;
      main_spans.End(setup_span);
    }
    if (!connected.ok()) {
      r.error = "connect: " + connected.status().ToString();
      ++r.attempted;
      ++r.failed;
      server->Stop(15 * kSeconds);
      return r;
    }
    conns[i]->client = connected.MoveValue();
    conns[i]->client->set_record_spans(traced);
  }

  Connection* control = conns[0].get();
  std::vector<Connection*> load;
  for (size_t i = in.workload == Workload::kOutOfCore ? 0 : 1;
       i < conns.size(); ++i) {
    load.push_back(conns[i].get());
  }
  switch (in.workload) {
    case Workload::kLockstep:
      RunLockstep(in, episode, control, load, &r);
      break;
    case Workload::kOutOfCore:
      RunOutOfCore(in, episode, load, &r);
      break;
    case Workload::kHistory:
      RunHistory(in, episode, control, load, &r);
      break;
  }

  // Public replies, after the timed region.
  uint64_t span = main_spans.Begin("stats", 0);
  auto stats = control->client->FetchStats();
  main_spans.End(span);
  if (stats.ok()) {
    r.stats = stats.Value();
  } else {
    control->Fail("stats: " + stats.status().ToString());
  }
  span = main_spans.Begin("scrape", 0);
  auto scrape = HttpGet(server->metrics_port(), "/metrics");
  main_spans.End(span);
  if (scrape.ok()) {
    r.resident_epoch_mb =
        ScrapeValue(scrape.Value(), "octopus_epoch_resident_bytes") /
        (1024.0 * 1024.0);
  } else {
    control->Fail("scrape: " + scrape.status().ToString());
  }
  r.rss_peak_mb = server->PeakRssMb();
  if (!spill_path.empty()) {
    r.sidecar_bytes = std::max<int64_t>(0, FileSize(spill_path));
  }
  if (traced) {
    span = main_spans.Begin("trace_dump", 0);
    auto dump = control->client->FetchTraceDump();
    main_spans.End(span);
    if (dump.ok()) {
      r.trace = std::move(dump.MoveValue().records);
    } else {
      control->Fail("trace dump: " + dump.status().ToString());
    }
  }

  for (const auto& owned : conns) {
    Connection* c = owned.get();
    r.attempted += c->attempted;
    r.failed += c->failed;
    r.queries += c->queries;
    r.wrong_epoch += c->wrong_epoch;
    if (r.error.empty()) r.error = c->error;
    (in.workload == Workload::kHistory && c != control ? r.hist_query_ms
                                                       : r.query_ms)
        .Append(c->latency_ms);
    (in.workload == Workload::kHistory ? r.historical : r.current)
        .Merge(c->share);
    for (auto& a : c->answers) r.answers.push_back(std::move(a));
    r.spans.insert(r.spans.end(), c->spans.spans().begin(),
                   c->spans.spans().end());
    const auto& calls = c->client->spans();
    r.client_spans.insert(r.client_spans.end(), calls.begin(), calls.end());
    c->client->Close();
  }

  const size_t iterations = r.iteration_ms().size();
  r.actors = in.workload == Workload::kLockstep ? 1
                                                : static_cast<int>(load.size());
  r.queries_per_iteration =
      iterations == 0 ? 0.0 : static_cast<double>(r.queries) / iterations;

  span = main_spans.Begin("stop", 0);
  const octopus::Status stopped = server->Stop(15 * kSeconds);
  main_spans.End(span);
  r.spans.insert(r.spans.end(), main_spans.spans().begin(),
                 main_spans.spans().end());
  if (!stopped.ok()) {
    r.cleaned_up = false;
    if (r.error.empty()) r.error = "stop: " + stopped.ToString();
  }
  if (!spill_path.empty() && FileSize(spill_path) >= 0) {
    r.cleaned_up = false;
    if (r.error.empty()) r.error = "sidecar left behind: " + spill_path;
    std::remove(spill_path.c_str());
  }
  return r;
}

}  // namespace octobench
