// Copyright 2026 The OCTOPUS Reproduction Authors
#include "server/versioned_backend.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <utility>

#include "mesh/mesh_io.h"
#include "storage/file_util.h"
#include "storage/page.h"
#include "storage/paged_mesh.h"

namespace octopus::server {

namespace {

/// Sequentially reads a snapshot's positions section (the simulation
/// side's working copy — one bulk read at bind time, not routed through
/// the query pool).
Status ReadAllPositions(const std::string& path,
                        const storage::SnapshotHeader& h,
                        std::vector<Vec3>* out) {
  storage::FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IOError("cannot open for read: " + path);
  out->resize(h.num_vertices);
  const size_t per_page = h.PositionsPerPage();
  uint64_t done = 0;
  for (uint64_t page = h.positions_start_page; done < h.num_vertices;
       ++page) {
    const size_t chunk = static_cast<size_t>(
        std::min<uint64_t>(per_page, h.num_vertices - done));
    if (std::fseek(f.get(), static_cast<long>(page * h.page_bytes),
                   SEEK_SET) != 0 ||
        std::fread(out->data() + done, sizeof(Vec3), chunk, f.get()) !=
            chunk) {
      return Status::Corruption("truncated positions section in " + path);
    }
    done += chunk;
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<VersionedBackend>> VersionedBackend::OpenMeshFile(
    const std::string& path, int threads) {
  auto mesh = LoadMesh(path);
  if (!mesh.ok()) return mesh.status();
  return FromMesh(mesh.MoveValue(), threads);
}

std::unique_ptr<VersionedBackend> VersionedBackend::FromMesh(TetraMesh mesh,
                                                             int threads) {
  std::unique_ptr<VersionedBackend> backend(new VersionedBackend(threads));
  backend->num_vertices_ = mesh.num_vertices();
  {
    // Load-time only: no stepper exists yet; the lock is for the
    // thread-safety analysis (the mesh is guarded by step_mu_).
    common::MutexLock step_lock(backend->step_mu_);
    backend->sim_mesh_ = std::move(mesh);
    backend->base_graph_ = backend->sim_mesh_.Graph();
    // The one-time build the paper prices: after this the index is
    // never maintained, however many steps the mesh advances.
    backend->surface_index_.Build(backend->sim_mesh_);
  }
  backend->contexts_.set_num_vertices(backend->num_vertices_);
  return backend;
}

Result<std::unique_ptr<VersionedBackend>> VersionedBackend::OpenSnapshot(
    const std::string& path, size_t pool_bytes, int threads) {
  PagedOctopus::Options options;
  options.pool.pool_bytes = pool_bytes;
  auto paged = PagedOctopus::Open(path, options);
  if (!paged.ok()) return paged.status();
  std::unique_ptr<VersionedBackend> backend(new VersionedBackend(threads));
  backend->paged_ = paged.MoveValue();
  backend->snapshot_path_ = path;
  backend->num_vertices_ =
      backend->paged_->store().header().num_vertices;
  backend->page_bytes_ = backend->paged_->store().header().page_bytes;
  return backend;
}

Status VersionedBackend::ConfigureRetention(
    const EpochRetentionOptions& options) {
  if (store_ != nullptr) {
    return Status::InvalidArgument(
        "retention must be configured before the deformer is bound");
  }
  OCTOPUS_RETURN_NOT_OK(options.Validate());
  retention_options_ = options;
  return Status::OK();
}

Status VersionedBackend::BindDeformer(const DeformerSpec& spec) {
  if (dynamic()) {
    return Status::InvalidArgument("a deformer is already bound");
  }
  // The sidecar pages with the snapshot's geometry on the paged
  // backend; in-memory picks the default (positions are packed into
  // whatever page size the sidecar uses — it only talks to itself).
  const uint32_t spill_page_bytes =
      page_bytes_ != 0 ? page_bytes_
                       : static_cast<uint32_t>(storage::kDefaultPageBytes);
  auto store =
      std::make_unique<EpochStore>(spill_page_bytes, retention_options_);
  OCTOPUS_RETURN_NOT_OK(store->Init());
  store->AttachJournal(journal_);

  common::MutexLock step_lock(step_mu_);
  // Where the simulation positions come from: in memory, the loaded
  // mesh itself; paged, the black-box solver's working copy read from
  // the snapshot, with the mean edge length sampled through a throwaway
  // accessor over the snapshot's adjacency.
  float mean_edge_length = 0.0f;
  if (paged_ == nullptr) {
    mean_edge_length = EstimateMeanEdgeLength(sim_mesh_);
  } else {
    std::vector<Vec3> positions;
    OCTOPUS_RETURN_NOT_OK(ReadAllPositions(
        snapshot_path_, paged_->store().header(), &positions));
    storage::PageIOStats scratch_stats;
    storage::PagedMeshAccessor adjacency(&paged_->store(), &scratch_stats);
    mean_edge_length = EstimateMeanEdgeLength(
        positions, [&adjacency](VertexId v) { return adjacency.neighbors(v); });
    paged_prev_positions_ = positions;
    sim_mesh_ = TetraMesh(std::move(positions), std::vector<Tet>{});
  }
  DeformerSpec resolved = spec;
  auto deformer = MakeDeformerResolving(&resolved, mean_edge_length);
  if (!deformer.ok()) return deformer.status();
  deformer_ = deformer.MoveValue();
  deformer_->Bind(sim_mesh_);
  spec_ = resolved;

  // Epoch ids start at 1: the wire reserves 0 for "whatever is
  // current", so id 1 keeps the initial (step-0) state addressable
  // after later steps supersede it. In memory that state is a copy of
  // the loaded positions, so queries stop reading the array the stepper
  // mutates; paged, the base file IS the initial state (no overlay).
  PinnedEpochState initial{engine::EpochInfo{1, 0}, nullptr, nullptr};
  if (paged_ == nullptr) {
    initial.positions = std::make_shared<const PositionEpoch>(
        PositionEpoch{initial.info, sim_mesh_.positions()});
  }
  store->Publish(std::move(initial));
  store_ = std::move(store);
  dynamic_.store(true, std::memory_order_release);
  return Status::OK();
}

engine::EpochInfo VersionedBackend::AdvanceStep() {
  assert(dynamic() && "AdvanceStep requires a bound deformer");
  common::MutexLock step_lock(step_mu_);
  const std::optional<PinnedEpochState> prev = store_->PinNewest();
  PinnedEpochState next;
  next.info = engine::EpochInfo{prev->info.epoch + 1, prev->info.step + 1};
  // SIMULATE: O(V) in-place deformation of the simulation mesh, outside
  // any lock the query path takes (queries read published states only).
  deformer_->ApplyStep(static_cast<int>(next.info.step), &sim_mesh_);
  size_t rewritten = 0;
  if (paged_ == nullptr) {
    // Copy-on-write: a fresh immutable buffer; pinned predecessors are
    // never touched.
    next.positions = std::make_shared<const PositionEpoch>(
        PositionEpoch{next.info, sim_mesh_.positions()});
  } else {
    // Delta pages: rewrite only position pages whose bytes changed;
    // unchanged pages are shared with the previous epoch (or stay in
    // the base file). Adjacency and surface pages are never touched.
    next.overlay = storage::PositionOverlay::BuildNext(
        paged_->store().header(), prev->overlay.get(), paged_prev_positions_,
        sim_mesh_.positions(), &rewritten);
    paged_prev_positions_ = sim_mesh_.positions();
  }
  last_step_pages_rewritten_.store(rewritten, std::memory_order_release);
  if (journal_ != nullptr) {
    journal_->Emit(obs::EventKind::kStepApplied, 0, 0, next.info.step,
                   rewritten);
  }
  const engine::EpochInfo info = next.info;
  store_->Publish(std::move(next));
  return info;
}

engine::EpochInfo VersionedBackend::CurrentEpoch() const {
  return store_ != nullptr ? store_->CurrentInfo() : engine::EpochInfo{};
}

void VersionedBackend::ExecutePinned(const PinnedEpochState* pin,
                                     std::span<const AABB> boxes,
                                     engine::QueryBatchResult* out,
                                     PhaseStats* batch_stats) {
  if (paged_ != nullptr) {
    paged_->ResetStats();
    paged_->RangeQueryBatch(boxes, out, engine_.pool(),
                            pin != nullptr ? pin->overlay.get() : nullptr);
    *batch_stats = paged_->stats();
  } else {
    MeshGraphView graph = base_graph_;
    if (pin != nullptr && pin->positions != nullptr) {
      graph.positions = pin->positions->positions;
    }
    contexts_.ResetStats();
    ExecuteOctopusBatch(graph, surface_index_, octopus_options_, boxes,
                        out, engine_.pool(), &contexts_);
    *batch_stats = contexts_.stats();
  }
  if (pin != nullptr) {
    out->epoch = pin->info;
    batch_stats->stale_steps = pin->info.step;
  }
}

void VersionedBackend::Execute(std::span<const AABB> boxes,
                               engine::QueryBatchResult* out,
                               PhaseStats* batch_stats) {
  // Pin the epoch for the whole batch: the position state (and the
  // buffers behind it) stays alive and immutable even if a step
  // publishes a successor mid-batch.
  if (store_ != nullptr) {
    const std::optional<PinnedEpochState> pin = store_->PinNewest();
    ExecutePinned(pin.has_value() ? &*pin : nullptr, boxes, out,
                  batch_stats);
    return;
  }
  ExecutePinned(nullptr, boxes, out, batch_stats);
}

Status VersionedBackend::ExecuteAt(engine::EpochId wire_epoch,
                                   std::span<const AABB> boxes,
                                   engine::QueryBatchResult* out,
                                   PhaseStats* batch_stats) {
  if (wire_epoch == 0) {
    // The wire's "epoch 0" means "whatever is current". The initial
    // state stays addressable as epoch 1 (published ids start at 1, so
    // the sentinel never shadows a real epoch).
    Execute(boxes, out, batch_stats);
    return Status::OK();
  }
  if (store_ == nullptr) {
    return Status::NotFound(
        "epoch " + std::to_string(wire_epoch) +
        " is gone: a static server has only its load-time state");
  }
  storage::PageIOStats reload_io;
  auto pinned = store_->PinEpoch(wire_epoch, &reload_io);
  if (!pinned.ok()) return pinned.status();
  ExecutePinned(&pinned.Value(), boxes, out, batch_stats);
  // Price the in-memory rematerialization (paged reloads already landed
  // in the executing contexts' counters via the sidecar pool).
  batch_stats->page_io.Merge(reload_io);
  return Status::OK();
}

Result<engine::EpochInfo> VersionedBackend::PinEpoch(
    engine::EpochId wire_epoch) {
  if (store_ == nullptr) {
    // Static backends have exactly one, never-evicted state: pinning
    // "current" is a harmless no-op so clients can run one code path.
    if (wire_epoch == 0) return engine::EpochInfo{};
    return Status::NotFound(
        "epoch " + std::to_string(wire_epoch) +
        " is gone: a static server has only its load-time state");
  }
  // "Pin current" resolves and pins atomically in the store: reading
  // the current id here and pinning it in a second call could lose a
  // race with a stepper publish evicting that very epoch.
  return wire_epoch == 0 ? store_->AddPinNewest()
                         : store_->AddPin(wire_epoch);
}

Status VersionedBackend::UnpinEpoch(engine::EpochId epoch) {
  if (store_ == nullptr) {
    if (epoch == 0) return Status::OK();  // the static no-op pin
    return Status::NotFound("epoch " + std::to_string(epoch) +
                            " was never pinned on this static server");
  }
  return store_->ReleasePin(epoch);
}

}  // namespace octopus::server
