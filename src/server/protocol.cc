// Copyright 2026 The OCTOPUS Reproduction Authors
#include "server/protocol.h"

#include <bit>
#include <cstring>
#include <type_traits>

namespace octopus::server {
namespace {

// --- Little-endian primitives ---

/// Appends `v` little-endian at the width of its type.
template <typename T>
void Put(Buffer* out, T v) {
  const auto u = static_cast<std::make_unsigned_t<T>>(v);
  for (size_t i = 0; i < sizeof(T); ++i) {
    out->push_back(static_cast<uint8_t>(u >> (8 * i)));
  }
}

void PutF32(Buffer* out, float v) { Put(out, std::bit_cast<uint32_t>(v)); }

/// Bounds-checked sequential reader over a frame payload.
class Reader {
 public:
  explicit Reader(std::span<const uint8_t> data) : data_(data) {}

  /// Reads a little-endian value at the width of `*v`'s type.
  template <typename T>
  bool Get(T* v) {
    if (pos_ + sizeof(T) > data_.size()) return false;
    std::make_unsigned_t<T> u = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      u |= static_cast<decltype(u)>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(T);
    *v = static_cast<T>(u);
    return true;
  }

  bool F32(float* v) {
    uint32_t u = 0;
    if (!Get(&u)) return false;
    *v = std::bit_cast<float>(u);
    return true;
  }

  bool Bytes(size_t n, std::string* out) {
    if (pos_ + n > data_.size()) return false;
    out->assign(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return true;
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool Done() const { return pos_ == data_.size(); }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("malformed frame: ") + what);
}

/// Reserves the 8-byte header, returning the offset where the payload
/// length must be patched once the payload has been appended.
size_t BeginFrame(Buffer* out, FrameType type) {
  const size_t header_at = out->size();
  Put<uint32_t>(out, 0);  // payload length, patched by EndFrame
  out->push_back(static_cast<uint8_t>(type));
  out->push_back(0);  // flags, reserved
  Put<uint16_t>(out, 0);  // reserved
  return header_at;
}

void EndFrame(Buffer* out, size_t header_at) {
  const size_t payload = out->size() - header_at - kFrameHeaderBytes;
  const auto len = static_cast<uint32_t>(payload);
  (*out)[header_at + 0] = static_cast<uint8_t>(len);
  (*out)[header_at + 1] = static_cast<uint8_t>(len >> 8);
  (*out)[header_at + 2] = static_cast<uint8_t>(len >> 16);
  (*out)[header_at + 3] = static_cast<uint8_t>(len >> 24);
}

// Per-line codec steps for the stats tables: `s` is the record being
// encoded (`out` the buffer) or decoded (`r` the reader).
#define OCTOPUS_PUT_FIELD(type, name, ...) Put(out, s.name);
#define OCTOPUS_READ_FIELD(type, name, ...) \
  if (!r->Get(&s->name)) return false;

void PutBatchStats(Buffer* out, const BatchStatsWire& s) {
  OCTOPUS_PHASE_FIELDS(OCTOPUS_PUT_FIELD, OCTOPUS_STATS_SKIP)
  OCTOPUS_PAGE_IO_FIELDS(OCTOPUS_PUT_FIELD, OCTOPUS_STATS_SKIP)
  Put<uint32_t>(out, s.batch_queries);
  Put<uint32_t>(out, s.batch_requests);
  Put<uint64_t>(out, s.epoch.epoch);
  Put<uint32_t>(out, s.epoch.step);
  Put<uint32_t>(out, 0);  // reserved
  Put<uint64_t>(out, s.trace_id);  // v6
}

bool ReadBatchStats(Reader* r, BatchStatsWire* s) {
  OCTOPUS_PHASE_FIELDS(OCTOPUS_READ_FIELD, OCTOPUS_STATS_SKIP)
  OCTOPUS_PAGE_IO_FIELDS(OCTOPUS_READ_FIELD, OCTOPUS_STATS_SKIP)
  uint32_t reserved = 0;
  return r->Get(&s->batch_queries) && r->Get(&s->batch_requests) &&
         r->Get(&s->epoch.epoch) && r->Get(&s->epoch.step) &&
         r->Get(&reserved) && r->Get(&s->trace_id);
}

bool ReadStats(Reader* r, ServerStatsWire* s) {
  OCTOPUS_SERVER_COUNTERS(OCTOPUS_READ_FIELD, OCTOPUS_READ_FIELD,
                          OCTOPUS_STATS_SKIP)
  return true;
}

bool ReadTraceRecord(Reader* r, obs::QueryTraceRecord* s) {
  OCTOPUS_TRACE_RECORD_FIELDS(OCTOPUS_READ_FIELD)
  return true;
}

}  // namespace

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadMagic: return "BAD_MAGIC";
    case ErrorCode::kVersionMismatch: return "VERSION_MISMATCH";
    case ErrorCode::kMalformedFrame: return "MALFORMED_FRAME";
    case ErrorCode::kFrameTooLarge: return "FRAME_TOO_LARGE";
    case ErrorCode::kUnexpectedFrame: return "UNEXPECTED_FRAME";
    case ErrorCode::kOverloaded: return "OVERLOADED";
    case ErrorCode::kShuttingDown: return "SHUTTING_DOWN";
    case ErrorCode::kInternal: return "INTERNAL";
    case ErrorCode::kTimeout: return "TIMEOUT";
    case ErrorCode::kEpochGone: return "EPOCH_GONE";
  }
  return "UNKNOWN";
}

BatchStatsWire BatchStatsWire::FromPhaseStats(const PhaseStats& stats,
                                              uint32_t batch_queries,
                                              uint32_t batch_requests,
                                              engine::EpochInfo epoch) {
  BatchStatsWire w;
#define OCTOPUS_FROM_PHASE(type, name, ...) w.name = stats.name;
#define OCTOPUS_FROM_PAGE_IO(type, name, ...) w.name = stats.page_io.name;
  OCTOPUS_PHASE_FIELDS(OCTOPUS_FROM_PHASE, OCTOPUS_STATS_SKIP)
  OCTOPUS_PAGE_IO_FIELDS(OCTOPUS_FROM_PAGE_IO, OCTOPUS_STATS_SKIP)
  w.epoch = epoch;
  w.batch_queries = batch_queries;
  w.batch_requests = batch_requests;
  return w;
}

PhaseStats BatchStatsWire::ToPhaseStats() const {
  PhaseStats s;
#define OCTOPUS_TO_PHASE(type, name, ...) s.name = this->name;
#define OCTOPUS_TO_PAGE_IO(type, name, ...) s.page_io.name = this->name;
  OCTOPUS_PHASE_FIELDS(OCTOPUS_TO_PHASE, OCTOPUS_STATS_SKIP)
  OCTOPUS_PAGE_IO_FIELDS(OCTOPUS_TO_PAGE_IO, OCTOPUS_STATS_SKIP)
  s.stale_steps = epoch.step;
  return s;
}

void AppendHello(Buffer* out, const HelloFrame& hello) {
  const size_t h = BeginFrame(out, FrameType::kHello);
  Put<uint32_t>(out, hello.magic);
  Put<uint16_t>(out, hello.version);
  Put<uint16_t>(out, hello.flags);
  EndFrame(out, h);
}

void AppendWelcome(Buffer* out, const WelcomeFrame& welcome) {
  const size_t h = BeginFrame(out, FrameType::kWelcome);
  Put<uint16_t>(out, welcome.version);
  out->push_back(welcome.paged);
  out->push_back(welcome.dynamic);
  Put<uint64_t>(out, welcome.num_vertices);
  Put<uint32_t>(out, welcome.page_bytes);
  Put<uint32_t>(out, welcome.max_batch_queries);
  EndFrame(out, h);
}

void AppendQueryBatch(Buffer* out, uint64_t request_id,
                      std::span<const AABB> boxes, uint64_t epoch,
                      uint64_t client_span_id) {
  const size_t h = BeginFrame(out, FrameType::kQueryBatch);
  Put<uint64_t>(out, request_id);
  Put<uint32_t>(out, static_cast<uint32_t>(boxes.size()));
  Put<uint32_t>(out, 0);  // reserved
  Put<uint64_t>(out, epoch);  // 0 = current (v3)
  Put<uint64_t>(out, client_span_id);  // 0 = no client span (v6)
  for (const AABB& box : boxes) {
    PutF32(out, box.min.x);
    PutF32(out, box.min.y);
    PutF32(out, box.min.z);
    PutF32(out, box.max.x);
    PutF32(out, box.max.y);
    PutF32(out, box.max.z);
  }
  EndFrame(out, h);
}

size_t ResultPayloadBytes(
    std::span<const std::vector<VertexId>> per_query) {
  size_t bytes = kResultFixedBytes + kBatchStatsBytes;
  for (const std::vector<VertexId>& result : per_query) {
    bytes += 4 + result.size() * sizeof(VertexId);
  }
  return bytes;
}

void AppendResult(Buffer* out, uint64_t request_id,
                  const BatchStatsWire& stats,
                  std::span<const std::vector<VertexId>> per_query) {
  const size_t h = BeginFrame(out, FrameType::kResult);
  Put<uint64_t>(out, request_id);
  Put<uint32_t>(out, static_cast<uint32_t>(per_query.size()));
  Put<uint32_t>(out, 0);  // reserved
  PutBatchStats(out, stats);
  for (const std::vector<VertexId>& result : per_query) {
    Put<uint32_t>(out, static_cast<uint32_t>(result.size()));
    for (const VertexId v : result) Put<uint32_t>(out, v);
  }
  EndFrame(out, h);
}

void AppendResultMeta(Buffer* out, uint64_t request_id,
                      const BatchStatsWire& stats,
                      std::span<const std::vector<VertexId>> per_query) {
  const size_t h = BeginFrame(out, FrameType::kResult);
  Put<uint64_t>(out, request_id);
  Put<uint32_t>(out, static_cast<uint32_t>(per_query.size()));
  Put<uint32_t>(out, 0);  // reserved
  PutBatchStats(out, stats);
  for (const std::vector<VertexId>& result : per_query) {
    Put<uint32_t>(out, static_cast<uint32_t>(result.size()));
  }
  // Not EndFrame: the header must announce the FULL payload, including
  // the vertex ids the writer gathers in from the result vectors.
  const auto len = static_cast<uint32_t>(ResultPayloadBytes(per_query));
  (*out)[h + 0] = static_cast<uint8_t>(len);
  (*out)[h + 1] = static_cast<uint8_t>(len >> 8);
  (*out)[h + 2] = static_cast<uint8_t>(len >> 16);
  (*out)[h + 3] = static_cast<uint8_t>(len >> 24);
}

void AppendStatsRequest(Buffer* out) {
  const size_t h = BeginFrame(out, FrameType::kStatsRequest);
  EndFrame(out, h);
}

void AppendStats(Buffer* out, const ServerStatsWire& s) {
  const size_t h = BeginFrame(out, FrameType::kStats);
  OCTOPUS_SERVER_COUNTERS(OCTOPUS_PUT_FIELD, OCTOPUS_PUT_FIELD,
                          OCTOPUS_STATS_SKIP)
  EndFrame(out, h);
}

void AppendStep(Buffer* out, const StepFrame& step) {
  const size_t h = BeginFrame(out, FrameType::kStep);
  Put<uint32_t>(out, step.steps);
  Put<uint32_t>(out, 0);  // reserved
  EndFrame(out, h);
}

void AppendEpochInfo(Buffer* out, const EpochInfoWire& info) {
  const size_t h = BeginFrame(out, FrameType::kEpochInfo);
  Put<uint64_t>(out, info.epoch);
  Put<uint32_t>(out, info.step);
  out->push_back(info.dynamic);
  out->push_back(info.deformer_kind);
  Put<uint16_t>(out, 0);  // reserved
  Put<uint64_t>(out, info.last_step_pages_rewritten);
  EndFrame(out, h);
}

void AppendPinEpoch(Buffer* out, const PinEpochFrame& pin) {
  const size_t h = BeginFrame(out, FrameType::kPinEpoch);
  Put<uint64_t>(out, pin.epoch);
  EndFrame(out, h);
}

void AppendUnpinEpoch(Buffer* out, const PinEpochFrame& unpin) {
  const size_t h = BeginFrame(out, FrameType::kUnpinEpoch);
  Put<uint64_t>(out, unpin.epoch);
  EndFrame(out, h);
}

void AppendTraceDumpRequest(Buffer* out) {
  const size_t h = BeginFrame(out, FrameType::kTraceDumpRequest);
  EndFrame(out, h);
}

void AppendTraceDump(Buffer* out, const TraceDumpWire& dump) {
  const size_t h = BeginFrame(out, FrameType::kTraceDump);
  Put<uint64_t>(out, dump.total_recorded);
  Put<uint32_t>(out, static_cast<uint32_t>(dump.records.size()));
  Put<uint32_t>(out, 0);  // reserved
  for (const obs::QueryTraceRecord& s : dump.records) {
    OCTOPUS_TRACE_RECORD_FIELDS(OCTOPUS_PUT_FIELD)
  }
  EndFrame(out, h);
}

void AppendError(Buffer* out, const ErrorFrame& error) {
  const size_t h = BeginFrame(out, FrameType::kError);
  Put<uint16_t>(out, static_cast<uint16_t>(error.code));
  Put<uint16_t>(out, 0);  // reserved
  Put<uint64_t>(out, error.request_id);
  Put<uint32_t>(out, static_cast<uint32_t>(error.message.size()));
  out->insert(out->end(), error.message.begin(), error.message.end());
  EndFrame(out, h);
}

Result<FrameHeader> ParseFrameHeader(std::span<const uint8_t> data) {
  if (data.size() < kFrameHeaderBytes) {
    return Malformed("header shorter than 8 bytes");
  }
  FrameHeader header;
  header.payload_bytes = static_cast<uint32_t>(data[0]) |
                         (static_cast<uint32_t>(data[1]) << 8) |
                         (static_cast<uint32_t>(data[2]) << 16) |
                         (static_cast<uint32_t>(data[3]) << 24);
  const uint8_t type = data[4];
  const uint8_t flags = data[5];
  if (data[6] != 0 || data[7] != 0) {
    return Malformed("nonzero reserved header bytes");
  }
  if (header.payload_bytes > kMaxFramePayloadBytes) {
    // ResourceExhausted (not InvalidArgument) so the server can answer
    // with the dedicated FRAME_TOO_LARGE error code.
    return Status::ResourceExhausted(
        "frame payload of " + std::to_string(header.payload_bytes) +
        " bytes exceeds the " + std::to_string(kMaxFramePayloadBytes) +
        "-byte cap");
  }
  if (type < static_cast<uint8_t>(FrameType::kHello) ||
      type > static_cast<uint8_t>(FrameType::kTraceDump)) {
    return Malformed("unknown frame type");
  }
  if (flags != 0) return Malformed("nonzero reserved flags");
  header.type = static_cast<FrameType>(type);
  return header;
}

Status ParseEmpty(std::span<const uint8_t> payload, const char* name) {
  if (payload.empty()) return Status::OK();
  return Status::InvalidArgument(std::string(name) +
                                 " payload must be empty");
}

Status ParseHello(std::span<const uint8_t> payload, HelloFrame* out) {
  Reader r(payload);
  if (!r.Get(&out->magic) || !r.Get(&out->version) || !r.Get(&out->flags) ||
      !r.Done()) {
    return Malformed("HELLO payload must be exactly 8 bytes");
  }
  return Status::OK();
}

Status ParseWelcome(std::span<const uint8_t> payload, WelcomeFrame* out) {
  Reader r(payload);
  uint16_t packed = 0;
  if (!r.Get(&out->version) || !r.Get(&packed) ||
      !r.Get(&out->num_vertices) || !r.Get(&out->page_bytes) ||
      !r.Get(&out->max_batch_queries) || !r.Done()) {
    return Malformed("WELCOME payload size mismatch");
  }
  out->paged = static_cast<uint8_t>(packed & 0xFF);
  out->dynamic = static_cast<uint8_t>(packed >> 8);
  return Status::OK();
}

Status ParseQueryBatch(std::span<const uint8_t> payload,
                       uint64_t* request_id, std::vector<AABB>* boxes,
                       uint64_t* epoch, uint64_t* client_span_id) {
  Reader r(payload);
  uint32_t count = 0;
  uint32_t reserved = 0;
  if (!r.Get(request_id) || !r.Get(&count) || !r.Get(&reserved) ||
      !r.Get(epoch) || !r.Get(client_span_id)) {
    return Malformed("QUERY_BATCH header truncated");
  }
  if (r.remaining() != static_cast<size_t>(count) * kQueryBoxBytes) {
    return Malformed("QUERY_BATCH query count disagrees with payload size");
  }
  boxes->clear();
  boxes->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    AABB box;
    if (!r.F32(&box.min.x) || !r.F32(&box.min.y) || !r.F32(&box.min.z) ||
        !r.F32(&box.max.x) || !r.F32(&box.max.y) || !r.F32(&box.max.z)) {
      return Malformed("QUERY_BATCH truncated query");
    }
    // NaN or infinite coordinates have no defined answer; an inverted
    // box is legal (its answer is empty).
    if (!box.IsFinite()) {
      return Malformed("QUERY_BATCH box coordinate not finite");
    }
    boxes->push_back(box);
  }
  return Status::OK();
}

Status ParseResult(std::span<const uint8_t> payload, uint64_t* request_id,
                   BatchStatsWire* stats,
                   std::vector<std::vector<VertexId>>* per_query) {
  Reader r(payload);
  uint32_t num_queries = 0;
  uint32_t reserved = 0;
  if (!r.Get(request_id) || !r.Get(&num_queries) || !r.Get(&reserved) ||
      !ReadBatchStats(&r, stats)) {
    return Malformed("RESULT header truncated");
  }
  // Each query needs at least its 4-byte count: bound the allocation by
  // what the payload can actually carry before resizing.
  if (static_cast<size_t>(num_queries) * 4 > r.remaining()) {
    return Malformed("RESULT query count disagrees with payload size");
  }
  per_query->clear();
  per_query->resize(num_queries);
  for (uint32_t q = 0; q < num_queries; ++q) {
    uint32_t count = 0;
    if (!r.Get(&count)) return Malformed("RESULT count truncated");
    if (r.remaining() < static_cast<size_t>(count) * 4) {
      return Malformed("RESULT ids truncated");
    }
    std::vector<VertexId>& ids = (*per_query)[q];
    ids.resize(count);
    for (uint32_t i = 0; i < count; ++i) {
      r.Get(&ids[i]);
    }
  }
  if (!r.Done()) return Malformed("RESULT trailing bytes");
  return Status::OK();
}

Status ParseStats(std::span<const uint8_t> payload, ServerStatsWire* out) {
  Reader r(payload);
  if (!ReadStats(&r, out) || !r.Done()) {
    return Malformed("STATS payload size mismatch");
  }
  return Status::OK();
}

Status ParseStep(std::span<const uint8_t> payload, StepFrame* out) {
  Reader r(payload);
  uint32_t reserved = 0;
  if (!r.Get(&out->steps) || !r.Get(&reserved) || !r.Done()) {
    return Malformed("STEP payload must be exactly 8 bytes");
  }
  if (out->steps > kMaxStepsPerFrame) {
    return Malformed("STEP count exceeds the per-frame cap");
  }
  return Status::OK();
}

Status ParseEpochInfo(std::span<const uint8_t> payload,
                      EpochInfoWire* out) {
  Reader r(payload);
  uint16_t packed = 0;
  uint16_t reserved = 0;
  if (!r.Get(&out->epoch) || !r.Get(&out->step) || !r.Get(&packed) ||
      !r.Get(&reserved) || !r.Get(&out->last_step_pages_rewritten) ||
      !r.Done()) {
    return Malformed("EPOCH_INFO payload size mismatch");
  }
  out->dynamic = static_cast<uint8_t>(packed & 0xFF);
  out->deformer_kind = static_cast<uint8_t>(packed >> 8);
  return Status::OK();
}

Status ParsePinEpoch(std::span<const uint8_t> payload,
                     PinEpochFrame* out) {
  Reader r(payload);
  if (!r.Get(&out->epoch) || !r.Done()) {
    return Malformed("PIN/UNPIN_EPOCH payload must be exactly 8 bytes");
  }
  return Status::OK();
}

Status ParseTraceDump(std::span<const uint8_t> payload,
                      TraceDumpWire* out) {
  Reader r(payload);
  uint32_t count = 0;
  uint32_t reserved = 0;
  if (!r.Get(&out->total_recorded) || !r.Get(&count) || !r.Get(&reserved)) {
    return Malformed("TRACE_DUMP header truncated");
  }
  if (reserved != 0) {
    return Malformed("TRACE_DUMP nonzero reserved field");
  }
  if (r.remaining() != static_cast<size_t>(count) * kTraceRecordBytes) {
    return Malformed(
        "TRACE_DUMP record count disagrees with payload size");
  }
  out->records.clear();
  out->records.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    obs::QueryTraceRecord rec;
    if (!ReadTraceRecord(&r, &rec)) {
      return Malformed("TRACE_DUMP truncated record");
    }
    out->records.push_back(rec);
  }
  if (!r.Done()) return Malformed("TRACE_DUMP trailing bytes");
  return Status::OK();
}

Status ParseError(std::span<const uint8_t> payload, ErrorFrame* out) {
  Reader r(payload);
  uint16_t code = 0;
  uint16_t reserved = 0;
  uint32_t msg_len = 0;
  if (!r.Get(&code) || !r.Get(&reserved) || !r.Get(&out->request_id) ||
      !r.Get(&msg_len) || msg_len != r.remaining() ||
      !r.Bytes(msg_len, &out->message)) {
    return Malformed("ERROR payload size mismatch");
  }
  if (code < static_cast<uint16_t>(ErrorCode::kBadMagic) ||
      code > static_cast<uint16_t>(ErrorCode::kEpochGone)) {
    return Malformed("ERROR unknown code");
  }
  out->code = static_cast<ErrorCode>(code);
  return Status::OK();
}

}  // namespace octopus::server
