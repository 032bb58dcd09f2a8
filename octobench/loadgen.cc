// Copyright 2026 The OCTOPUS Reproduction Authors
// The benchmark's load generator: generates the inputs from the seed,
// runs the workload's episodes against child `octopus_cli serve`
// processes, checks sampled answers against in-process references,
// prints every metric by name and unit, and ends with the one-line JSON
// result. run.py builds and invokes it; see README.md.
//
//   octobench_loadgen --workload <lockstep|outofcore|history> --seed N
//       --seconds S --trace 0|1 --cli <octopus_cli> --work-dir DIR
//       --out-dir DIR [--commit STR]
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "harness.h"
#include "mesh/generators/datasets.h"
#include "mesh/mesh_io.h"
#include "mesh/surface.h"
#include "obs/trace.h"
#include "reference.h"
#include "sim/deformer.h"
#include "storage/snapshot.h"
#include "workloads.h"

namespace octobench {
namespace {

constexpr int kNeuroLevel = 1;
constexpr double kMeshScale = 2.0;
constexpr size_t kPageBytes = 4096;
constexpr size_t kPoolBytes = 256u << 10;
// Untraced episodes per run, each on a fresh server. The gated metrics
// are medians over episodes, so one disturbed episode (a co-tenant
// burst, an unlucky thread placement) does not move them. A traced run
// interleaves traced and untraced episodes (U T U T) so tracing
// overhead is a same-run ratio.
constexpr int kEpisodes = 10;
constexpr int kTracedPairs = 2;
// Lockstep work is a cycle count, not a duration: plasticity drift makes
// later steps dearer, so a faster build must not reach later steps.
constexpr double kLockstepCyclesPerSecond = 45.0;

// The metric sets the result line carries — BENCHMARK.json's
// end_to_end and per_layer lists, in that order.
const std::vector<std::string> kEndToEnd = {
    "setup_s", "queries_per_s", "query_ms_p50", "server_rss_peak_mb"};
const std::vector<std::string> kPerLayer = {
    "mesh.load_s",
    "octopus.index_build_s",
    "sim.apply_step_ms_p50",
    "server.advance_step_ms_p50",
    "server.epoch_reload_ms_p50",
    "server.reload_pages_per_hist_query",
    "server.resident_epoch_mb",
    "server.coalesce_factor",
    "server.sched_wait_ms_p50",
    "server.rejected_share",
    "server.request_ms_p50",
    "server.serialize_us_per_request",
    "client.wire_ms_p50",
    "octopus.probe_ms_per_query",
    "octopus.walk_ms_per_query",
    "octopus.crawl_ms_per_query",
    "engine.merge_ms_per_query",
    "octopus.probed_vertices_per_query",
    "octopus.dry_query_share",
    "octopus.walk_vertices_per_query",
    "octopus.crawl_edges_per_result_vertex",
    "engine.busy_share",
    "storage.page_misses_per_query",
    "storage.pool_hit_rate",
    "storage.lease_hit_share",
    "storage.access_over_distinct",
    "client.stepper_lag_ms_p99",
    "obs.tracing_overhead",
    "client.cycles_per_s",
    "client.queries_per_s_wall",
    "client.cycle_ms_p50",
    "client.cycle_ms_p95",
    "client.step_ms_p50",
    "client.step_ms_p95",
    "client.query_ms_p95",
    "client.query_ms_p99",
    "client.hist_query_ms_p50",
    "client.hist_query_ms_p99",
    "client.error_rate",
    "client.sidecar_bytes_per_step",
};

struct Args {
  Workload workload = Workload::kLockstep;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string cli, work_dir, out_dir, commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      if (!ParseWorkload(value, &a->workload)) return false;
      have_workload = true;
    } else if (key == "--seed") {
      a->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      a->trace = std::strcmp(value, "1") == 0;
    } else if (key == "--cli") {
      a->cli = value;
    } else if (key == "--work-dir") {
      a->work_dir = value;
    } else if (key == "--out-dir") {
      a->out_dir = value;
    } else if (key == "--commit") {
      a->commit = value;
    } else {
      return false;
    }
  }
  return have_workload && a->seconds > 0 && !a->cli.empty() &&
         !a->work_dir.empty() && !a->out_dir.empty() && argc % 2 == 1;
}

/// The gated end-to-end set, from the untraced episodes during which
/// the hypervisor stole the least CPU time: the quieter half (rounded
/// up). Selection looks only at /proc/stat steal, never at the
/// measured values, and interference only ever slows an episode down.
/// The latency and throughput values pool every iteration of those
/// episodes and take its median, so a burst that stalls a few
/// iterations does not move them.
void GatedMetrics(Workload w, std::vector<const EpisodeResult*> eps,
                  std::map<std::string, Metric>* m) {
  auto put = [m](Metric metric) { (*m)[metric.name] = std::move(metric); };
  std::stable_sort(eps.begin(), eps.end(),
                   [](const EpisodeResult* a, const EpisodeResult* b) {
                     return a->steal_share < b->steal_share;
                   });
  const size_t all_episodes = eps.size();
  eps.resize((eps.size() + 1) / 2);
  Samples setup, iteration_ms, batch_ms, rss;
  double worst_steal = 0;
  for (const EpisodeResult* e : eps) {
    setup.Add(e->setup_s);
    iteration_ms.Append(e->iteration_ms());
    batch_ms.Append(w == Workload::kHistory ? e->hist_query_ms : e->query_ms);
    rss.Add(e->rss_peak_mb);
    worst_steal = std::max(worst_steal, e->steal_share);
  }
  char quiet[100];
  std::snprintf(quiet, sizeof(quiet),
                "quietest %zu of %zu episodes, steal <= %.2f%%", eps.size(),
                all_episodes, 100.0 * worst_steal);
  auto put_median = [&](const char* name, double value, const char* unit,
                        const Samples& samples, const char* what) {
    put(Metric{name, value, unit, samples.size(),
               "median of " + std::to_string(samples.size()) + " " + what +
                   " (" + quiet + ")"});
  };
  put_median("setup_s", setup.Quantile(0.5), "s", setup, "set-ups");
  const EpisodeResult& shape = *eps.front();
  char what[120];
  std::snprintf(what, sizeof(what),
                "iterations; %d actor(s) x %.4g queries / median iteration",
                shape.actors, shape.queries_per_iteration);
  put_median("queries_per_s", shape.RateAt(iteration_ms.Quantile(0.5)),
             "1/s", iteration_ms, what);
  put_median("query_ms_p50", batch_ms.Quantile(0.5), "ms", batch_ms,
             "batch round trips");
  put_median("server_rss_peak_mb", rss.Quantile(0.5), "MB", rss, "peaks");
}

/// Metrics from all untraced episodes: the workload-specific client.*
/// ones and the E-sourced layer ratios.
void UntracedMetrics(Workload w, const std::vector<EpisodeResult>& eps,
                     std::map<std::string, Metric>* m) {
  auto put = [m](Metric metric) { (*m)[metric.name] = std::move(metric); };
  Samples batch_ms, cycle_ms, step_ms, lag_ms, resident, request_ms;
  EngineShare all, hist;
  double seconds = 0, cycles = 0, attempted = 0, failed = 0,
         sidecar = 0, steps = 0, executed = 0, batches = 0, rejected = 0,
         received = 0, queries = 0;
  for (const EpisodeResult& e : eps) {
    batch_ms.Append(w == Workload::kHistory ? e.hist_query_ms : e.query_ms);
    cycle_ms.Append(e.cycle_ms);
    step_ms.Append(e.step_ms);
    lag_ms.Append(e.stepper_lag_ms);
    resident.Add(e.resident_epoch_mb);
    request_ms.Add(e.stats.latency_p50_nanos / 1e6);
    all.Merge(e.current);
    all.Merge(e.historical);
    hist.Merge(e.historical);
    seconds += e.measured_s;
    queries += e.queries;
    cycles += e.cycles;
    attempted += e.attempted;
    failed += e.failed;
    sidecar += e.sidecar_bytes;
    steps += e.stats.steps_applied;
    executed += e.stats.queries_executed;
    batches += e.stats.batches_executed;
    rejected += e.stats.queries_rejected;
    received += e.stats.queries_received;
  }
  put(RatioMetric("client.cycles_per_s", cycles, seconds, "1/s", "cycles",
                  "s measured"));
  put(RatioMetric("client.queries_per_s_wall", queries, seconds, "1/s",
                  "queries", "s measured"));
  put(MedianMetric("client.cycle_ms_p50", cycle_ms, "ms"));
  put(TailMetric("client.cycle_ms_p95", cycle_ms, 0.95, "ms"));
  put(MedianMetric("client.step_ms_p50", step_ms, "ms"));
  put(TailMetric("client.step_ms_p95", step_ms, 0.95, "ms"));
  put(TailMetric("client.query_ms_p95", batch_ms, 0.95, "ms"));
  put(TailMetric("client.query_ms_p99", batch_ms, 0.99, "ms"));
  const Samples none;
  const Samples& hist_ms = w == Workload::kHistory ? batch_ms : none;
  put(MedianMetric("client.hist_query_ms_p50", hist_ms, "ms"));
  put(TailMetric("client.hist_query_ms_p99", hist_ms, 0.99, "ms"));
  put(RatioMetric("client.error_rate", failed, attempted, "ratio",
                  "failed/refused/gone/timed-out ops", "attempted"));
  put(RatioMetric("client.sidecar_bytes_per_step", sidecar, steps, "B",
                  "sidecar bytes before stop", "steps applied"));
  put(TailMetric("client.stepper_lag_ms_p99", lag_ms, 0.99, "ms"));

  put(MedianMetric("server.resident_epoch_mb", resident, "MB"));
  put(MedianMetric("server.request_ms_p50", request_ms, "ms"));
  put(RatioMetric("server.coalesce_factor", executed, batches, "ratio",
                  "queries executed", "batches"));
  put(RatioMetric("server.rejected_share", rejected, received, "ratio",
                  "queries rejected", "received"));
  put(RatioMetric("server.reload_pages_per_hist_query", hist.page_misses,
                  hist.requests, "count", "page misses",
                  "historical batches"));
  const double q = all.queries;
  put(RatioMetric("octopus.probe_ms_per_query", all.probe_nanos / 1e6, q,
                  "ms", "probe ms", "queries"));
  put(RatioMetric("octopus.walk_ms_per_query", all.walk_nanos / 1e6, q,
                  "ms", "walk ms", "queries"));
  put(RatioMetric("octopus.crawl_ms_per_query", all.crawl_nanos / 1e6, q,
                  "ms", "crawl ms", "queries"));
  put(RatioMetric("engine.merge_ms_per_query", all.merge_nanos / 1e6, q,
                  "ms", "merge ms", "queries"));
  put(RatioMetric("octopus.probed_vertices_per_query", all.probed_vertices,
                  q, "count", "probed vertices", "queries"));
  put(RatioMetric("octopus.dry_query_share", all.walk_invocations, q,
                  "ratio", "dry probes (walks)", "queries"));
  put(RatioMetric("octopus.walk_vertices_per_query", all.walk_vertices, q,
                  "count", "walk vertices", "queries"));
  put(RatioMetric("octopus.crawl_edges_per_result_vertex", all.crawl_edges,
                  all.result_vertices, "ratio", "crawl edges",
                  "result vertices"));
  put(RatioMetric("engine.busy_share",
                  (all.probe_nanos + all.walk_nanos + all.crawl_nanos +
                   all.merge_nanos) / 1e9,
                  seconds, "ratio", "engine s", "s measured"));
  put(RatioMetric("storage.page_misses_per_query", all.page_misses, q,
                  "count", "page misses", "queries"));
  put(RatioMetric("storage.pool_hit_rate", all.page_hits,
                  all.page_hits + all.page_misses, "ratio", "pool hits",
                  "priced accesses"));
  put(RatioMetric("storage.lease_hit_share", all.lease_hits,
                  all.lease_hits + all.page_hits + all.page_misses, "ratio",
                  "lease hits", "page reads"));
  put(RatioMetric("storage.access_over_distinct",
                  all.page_hits + all.page_misses, all.pages_distinct,
                  "ratio", "priced accesses", "distinct pages"));
}

/// T-sourced metrics from the traced episodes, and the overhead ratio.
void TracedMetrics(const std::vector<EpisodeResult>& traced,
                   const std::vector<EpisodeResult>& untraced,
                   std::map<std::string, Metric>* m) {
  auto put = [m](Metric metric) { (*m)[metric.name] = std::move(metric); };
  Samples wait_ms, wire_ms;
  double serialize_ns = 0, records = 0;
  for (const EpisodeResult& e : traced) {
    std::map<uint64_t, int64_t> total_by_trace;
    for (const auto& r : e.trace) {
      wait_ms.Add(r.queue_wait_nanos / 1e6);
      serialize_ns += r.serialize_nanos;
      ++records;
      total_by_trace[r.trace_id] = r.total_nanos;
    }
    for (const auto& s : e.client_spans) {
      const auto it = total_by_trace.find(s.server_trace_id);
      if (s.server_trace_id == 0 || it == total_by_trace.end()) continue;
      wire_ms.Add((s.send_nanos + s.wait_nanos + s.recv_nanos -
                   it->second) / 1e6);
    }
  }
  put(MedianMetric("server.sched_wait_ms_p50", wait_ms, "ms"));
  put(RatioMetric("server.serialize_us_per_request", serialize_ns / 1e3,
                  records, "us", "serialize us", "trace records"));
  put(MedianMetric("client.wire_ms_p50", wire_ms, "ms"));
  auto rate = [](const std::vector<EpisodeResult>& eps) {
    double q = 0, s = 0;
    for (const auto& e : eps) {
      q += e.queries;
      s += e.measured_s;
    }
    return s > 0 ? q / s : 0.0;
  };
  put(RatioMetric("obs.tracing_overhead", rate(traced), rate(untraced),
                  "ratio", "traced queries/s", "untraced queries/s"));
}

/// Aggregate (steal, total) CPU ticks from /proc/stat: a run measured
/// while the hypervisor stole time reads slow for reasons outside the
/// code, so the report records how much was stolen.
std::pair<double, double> CpuTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  double v[8] = {0};
  const int n = std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0],
                            &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n != 8) return {0, 0};
  double total = 0;
  for (double x : v) total += x;
  return {v[7], total};
}

/// Share of CPU time stolen between two `CpuTicks` readings.
double StealShare(std::pair<double, double> before,
                  std::pair<double, double> after) {
  const double total = after.second - before.second;
  return total > 0 ? (after.first - before.first) / total : 0.0;
}

void PrintMetric(const Metric& m) {
  std::printf("  %-38s %14.6g %-6s [%s]\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.basis.c_str());
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int Run(const Args& args) {
  const char* name = WorkloadName(args.workload);
  std::printf("octobench %s: seed %" PRIu64 ", %.3g s, trace %d\n", name,
              args.seed, args.seconds, args.trace ? 1 : 0);

  // --- inputs, from the seed (the mesh itself is the fixed dataset) ---
  octopus::Timer timer;
  auto generated = octopus::MakeNeuroMesh(kNeuroLevel, kMeshScale);
  if (!generated.ok()) {
    std::fprintf(stderr, "mesh: %s\n", generated.status().ToString().c_str());
    return 1;
  }
  const octopus::TetraMesh& mesh = generated.Value();
  const double generate_s = timer.ElapsedSeconds();
  Inputs in;
  in.workload = args.workload;
  in.cli = args.cli;
  in.work_dir = args.work_dir;
  in.mesh_path = args.work_dir + "/neuro1.oct1";
  in.pool_bytes = kPoolBytes;
  in.seed = args.seed;
  in.episode_seconds = args.seconds / kEpisodes;
  in.lockstep_cycles = std::max(
      4, static_cast<int>(std::lround(kLockstepCyclesPerSecond *
                                      args.seconds / kEpisodes)));
  in.spec.kind = octopus::DeformerKind::kPlasticity;
  in.spec.amplitude =
      octopus::DefaultAmplitude(octopus::EstimateMeanEdgeLength(mesh));
  in.spec.seed = args.seed;
  octopus::Status saved = octopus::SaveMesh(mesh, in.mesh_path);
  std::string snapshot_desc = "none";
  if (saved.ok() && args.workload == Workload::kOutOfCore) {
    in.snapshot_path = args.work_dir + "/neuro1.hilbert.oct2";
    saved = octopus::SaveSnapshot(
        mesh, in.snapshot_path,
        octopus::storage::SnapshotOptions{
            .page_bytes = kPageBytes,
            .layout = octopus::storage::SnapshotLayout::kHilbert});
    if (saved.ok()) {
      auto header = octopus::storage::ReadSnapshotHeader(in.snapshot_path);
      if (header.ok()) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "hilbert, %zu-byte pages, %" PRIu64
                      " pages (%.2f MB), pool %zu bytes (%.1fx smaller)",
                      kPageBytes, header.Value().num_pages,
                      header.Value().FileBytes() / 1e6, kPoolBytes,
                      header.Value().FileBytes() /
                          static_cast<double>(kPoolBytes));
        snapshot_desc = buf;
      }
    }
  }
  if (!saved.ok()) {
    std::fprintf(stderr, "inputs: %s\n", saved.ToString().c_str());
    return 1;
  }
  const size_t surface =
      octopus::ExtractSurface(mesh).surface_vertices.size();
  octopus::QueryGenerator generator(mesh);
  in.generator = &generator;

  char provenance[1024];
  std::snprintf(
      provenance, sizeof(provenance),
      "{\"commit\":\"%s\",\"build_type\":\"%s\",\"compiler\":\"%s\","
      "\"nproc\":%u,\"workload\":\"%s\",\"seed\":%" PRIu64
      ",\"seconds\":%s,\"trace\":%d,\"mesh\":\"neuro%d@%.1f\","
      "\"mesh_vertices\":%zu,\"mesh_surface_vertices\":%zu,"
      "\"snapshot\":\"%s\",\"pool_bytes\":%zu,\"deformer\":\"plasticity "
      "amplitude %.9g seed %" PRIu64 "\",\"mesh_generate_s\":%.3f}",
      JsonEscape(args.commit).c_str(), OCTOBENCH_BUILD_TYPE,
      OCTOBENCH_COMPILER, std::thread::hardware_concurrency(), name,
      args.seed, Num(args.seconds).c_str(), args.trace ? 1 : 0, kNeuroLevel,
      kMeshScale, mesh.num_vertices(), surface, snapshot_desc.c_str(),
      args.workload == Workload::kOutOfCore ? kPoolBytes : size_t{0},
      in.spec.amplitude, in.spec.seed, generate_s);
  std::printf("provenance: %s\n", provenance);

  // --- episodes ---
  const auto ticks_before = CpuTicks();
  std::vector<bool> plan;
  if (args.trace) {
    for (int i = 0; i < kTracedPairs; ++i) plan.insert(plan.end(), {false, true});
  } else {
    plan.assign(kEpisodes, false);
  }
  std::vector<EpisodeResult> untraced, traced;
  std::vector<AnswerSample> answers;
  uint64_t attempted = 0, failed = 0, wrong_epoch = 0;
  bool cleaned_up = true;
  for (size_t i = 0; i < plan.size(); ++i) {
    const auto episode_ticks = CpuTicks();
    EpisodeResult r = RunEpisode(in, static_cast<int>(i), plan[i]);
    r.steal_share = StealShare(episode_ticks, CpuTicks());
    std::printf("episode %zu (%s): steal %.2f%%, setup %.3f s, %" PRIu64
                " queries in %.3f s (%.0f/s at the median iteration), %" PRIu64
                "/%" PRIu64
                " ops failed, server VmHWM %.1f MB, sidecar %" PRId64
                " B%s%s\n",
                i + 1, r.traced ? "traced" : "untraced",
                100.0 * r.steal_share, r.setup_s,
                r.queries, r.measured_s,
                r.RateAt(r.iteration_ms().Quantile(0.5)), r.failed,
                r.attempted, r.rss_peak_mb, r.sidecar_bytes,
                r.error.empty() ? "" : ", first error: ", r.error.c_str());
    attempted += r.attempted;
    failed += r.failed;
    wrong_epoch += r.wrong_epoch;
    cleaned_up &= r.cleaned_up;
    for (auto& a : r.answers) answers.push_back(std::move(a));
    r.answers.clear();
    (r.traced ? traced : untraced).push_back(std::move(r));
  }

  const double steal_share = StealShare(ticks_before, CpuTicks());
  std::printf("cpu steal during the episodes: %.2f%% of all CPU time\n",
              100.0 * steal_share);

  // --- correctness, outside the timed region ---
  Samples apply_step_ms;
  const CheckResult check =
      args.workload == Workload::kOutOfCore
          ? CheckAgainstSnapshot(in.snapshot_path, std::move(answers))
          : CheckAgainstTwin(in.mesh_path, in.spec, std::move(answers),
                             &apply_step_ms);
  const bool correct = check.ok() && check.samples > 0 &&
                       wrong_epoch == 0 && cleaned_up;
  std::printf("correctness: %zu sampled RESULTs (%zu queries) vs %s: %zu "
              "mismatching queries%s%s; self-test (corrupted answer) "
              "caught: %s; wrong epoch stamps: %" PRIu64
              "; servers and sidecars cleaned up: %s%s%s\n",
              check.samples, check.queries,
              args.workload == Workload::kOutOfCore
                  ? "in-process OpenSnapshot"
                  : "in-process twin at the same step",
              check.mismatches, check.first_mismatch.empty() ? "" : ", first: ",
              check.first_mismatch.c_str(),
              check.self_test_caught ? "yes" : "NO", wrong_epoch,
              cleaned_up ? "yes" : "NO",
              check.error.empty() ? "" : "; reference error: ",
              check.error.c_str());

  // --- metrics ---
  std::map<std::string, Metric> metrics;
  std::vector<const EpisodeResult*> untraced_ptrs;
  for (const EpisodeResult& e : untraced) untraced_ptrs.push_back(&e);
  GatedMetrics(args.workload, untraced_ptrs, &metrics);
  UntracedMetrics(args.workload, untraced, &metrics);
  if (args.trace) {
    TracedMetrics(traced, untraced, &metrics);
    const LayerTimings layers = TimeLayers(in);
    if (!layers.error.empty()) {
      std::fprintf(stderr, "layer timing: %s\n", layers.error.c_str());
      return 1;
    }
    metrics["mesh.load_s"] =
        Metric{"mesh.load_s", layers.mesh_load_s, "s", 1, "one LoadMesh"};
    metrics["octopus.index_build_s"] = Metric{
        "octopus.index_build_s", layers.index_build_s, "s", 1,
        args.workload == Workload::kOutOfCore ? "one OpenSnapshot"
                                              : "one FromMesh"};
    metrics["sim.apply_step_ms_p50"] =
        MedianMetric("sim.apply_step_ms_p50", apply_step_ms, "ms");
    metrics["server.advance_step_ms_p50"] = MedianMetric(
        "server.advance_step_ms_p50", layers.advance_step_ms, "ms");
    metrics["server.epoch_reload_ms_p50"] = MedianMetric(
        "server.epoch_reload_ms_p50", layers.epoch_reload_ms, "ms");
  }

  const std::vector<std::string>& reported = args.trace ? kPerLayer : kEndToEnd;
  std::printf("end-to-end, gated (client-observed, untraced episodes):\n");
  for (const std::string& n : kEndToEnd) PrintMetric(metrics[n]);
  if (args.trace) {
    std::printf("per-layer (E: untraced replies, T: traced episodes, "
                "P: in-process) and client.* end-to-end:\n");
  } else {
    std::printf("end-to-end, not gated (client.*):\n");
  }
  for (const std::string& n : kPerLayer) {
    if (args.trace || n.rfind("client.", 0) == 0) PrintMetric(metrics[n]);
  }

  // --- artifacts ---
  std::string report = "{\"provenance\":" + std::string(provenance) +
                       ",\"cpu_steal_share\":" + Num(steal_share) +
                       ",\"correct\":" + (correct ? "true" : "false") +
                       ",\"metrics\":[";
  bool first = true;
  for (const auto& [n, m] : metrics) {
    report += std::string(first ? "" : ",") + "\n{\"name\":\"" + n +
              "\",\"value\":" + Num(m.value) + ",\"unit\":\"" + m.unit +
              "\",\"samples\":" + std::to_string(m.samples) +
              ",\"basis\":\"" + JsonEscape(m.basis) + "\"}";
    first = false;
  }
  report += "\n]}\n";
  bool wrote = WriteFile(args.out_dir + "/report.json", report);
  if (args.trace) {
    std::vector<Span> spans;
    std::vector<octopus::obs::QueryTraceRecord> records;
    for (const EpisodeResult& e : traced) {
      spans.insert(spans.end(), e.spans.begin(), e.spans.end());
      records.insert(records.end(), e.trace.begin(), e.trace.end());
    }
    wrote &= WriteFile(args.out_dir + "/bench_spans.json",
                       ChromeSpansJson(spans));
    wrote &= WriteFile(args.out_dir + "/server_trace.json",
                       octopus::obs::ChromeTraceJson(records));
  }
  std::printf("artifacts: %s/{report.json%s}%s\n", args.out_dir.c_str(),
              args.trace ? ",bench_spans.json,server_trace.json" : "",
              wrote ? "" : " (WRITE FAILED)");

  std::remove(in.mesh_path.c_str());
  if (!in.snapshot_path.empty()) std::remove(in.snapshot_path.c_str());

  // --- the result line ---
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < reported.size(); ++i) {
    const Metric& m = metrics[reported[i]];
    line += (i == 0 ? "\"" : ", \"") + reported[i] + "\": {\"value\": " +
            Num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace octobench

int main(int argc, char** argv) {
  octobench::Args args;
  if (!octobench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: octobench_loadgen --workload "
                 "<lockstep|outofcore|history> --seed N --seconds S "
                 "--trace 0|1 --cli PATH --work-dir DIR --out-dir DIR "
                 "[--commit STR]\n");
    return 2;
  }
  return octobench::Run(args);
}
