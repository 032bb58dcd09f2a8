// Copyright 2026 The OCTOPUS Reproduction Authors
// The OCTP wire protocol: length-prefixed binary frames exchanged between
// the query server and its clients. Everything on the wire is
// little-endian with explicit field widths (see docs/PROTOCOL.md for the
// normative layout); encoding and decoding are symmetric free functions
// over byte buffers, so the server, the client library, tests and fuzzers
// all share one implementation and malformed input surfaces as a
// `Status`, never as UB.
#ifndef OCTOPUS_SERVER_PROTOCOL_H_
#define OCTOPUS_SERVER_PROTOCOL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/aabb.h"
#include "common/status.h"
#include "engine/mesh_epoch.h"
#include "engine/query_batch.h"
#include "obs/trace.h"
#include "octopus/phase_stats.h"

namespace octopus::server {

/// "OCTP" — first field of the HELLO frame; anything else on a fresh
/// connection is rejected as a non-protocol peer.
inline constexpr uint32_t kProtocolMagic = 0x4F435450;

/// Bumped on any incompatible frame-layout change; the server rejects
/// mismatched clients in the handshake. v2: epoch-stamped RESULTs
/// (120-byte batch-stats block), STEP/EPOCH_INFO frames, TIMEOUT error,
/// `steps_applied` in STATS. v3: `epoch` field on QUERY_BATCH (0 =
/// current; the fixed header grew 16 → 24 bytes before the boxes),
/// PIN_EPOCH/UNPIN_EPOCH frames with per-session pin accounting, and
/// the EPOCH_GONE error for history evicted from the bounded epoch
/// ring. v4: lease counters (`lease_hits`/`pages_leased`/
/// `pages_distinct`) in the batch-stats block (120 → 144 bytes) and in
/// STATS (120 → 144 bytes); published epoch ids start at 1 so the
/// initial state stays addressable after supersession (0 remains the
/// "current" sentinel on the wire). v5: `merge_nanos` in the batch-stats
/// block (144 → 152 bytes) and the TRACE_DUMP_REQUEST/TRACE_DUMP frames
/// exporting the server's flight-recorder ring. v6: trace-context
/// propagation — QUERY_BATCH carries an optional `client_span_id` (the
/// fixed header grew 24 → 32 bytes before the boxes; 0 = no client
/// span) and the batch-stats block echoes the server's flight-recorder
/// `trace_id` (152 → 160 bytes; 0 = tracing disabled), so a client can
/// join its own send/wait/receive timings with the server-side record
/// of the same request.
inline constexpr uint16_t kProtocolVersion = 6;

/// Every frame starts with this fixed-size header.
inline constexpr size_t kFrameHeaderBytes = 8;

/// Hard cap on a single frame's payload. Frames announcing more are
/// rejected as malformed before any allocation happens (a 4-byte length
/// prefix must never let a peer request a 4 GB buffer).
inline constexpr uint32_t kMaxFramePayloadBytes = 16u << 20;

enum class FrameType : uint8_t {
  kHello = 1,         ///< client -> server: magic, version
  kWelcome = 2,       ///< server -> client: accepted handshake + backend info
  kQueryBatch = 3,    ///< client -> server: request id + AABB queries
  kResult = 4,        ///< server -> client: per-query results + batch stats
  kStatsRequest = 5,  ///< client -> server: empty payload
  kStats = 6,         ///< server -> client: server metrics snapshot
  kError = 7,         ///< server -> client: typed error, optional request id
  kStep = 8,          ///< client -> server: advance the simulation N steps
  kEpochInfo = 9,     ///< server -> client: current epoch + deformer info
  kPinEpoch = 10,     ///< client -> server: exempt an epoch from eviction
  kUnpinEpoch = 11,   ///< client -> server: release one pin
  kTraceDumpRequest = 12,  ///< client -> server: empty payload (v5)
  kTraceDump = 13,    ///< server -> client: flight-recorder ring (v5)
};

/// Typed error codes carried by kError frames.
enum class ErrorCode : uint16_t {
  kBadMagic = 1,         ///< first frame's magic was not "OCTP"
  kVersionMismatch = 2,  ///< client protocol version unsupported
  kMalformedFrame = 3,   ///< frame failed to parse (connection is closed)
  kFrameTooLarge = 4,    ///< announced payload above kMaxFramePayloadBytes
  kUnexpectedFrame = 5,  ///< frame type invalid in this session state
  kOverloaded = 6,       ///< admission control rejected the request
  kShuttingDown = 7,     ///< server is draining; request not accepted
  kInternal = 8,         ///< server-side failure executing the request
  kTimeout = 9,          ///< session idle/handshake deadline expired
  /// The requested epoch was evicted from the bounded history (or never
  /// existed). Request-scoped: the connection stays usable — re-query
  /// the current epoch, or pin earlier next time.
  kEpochGone = 10,
};

const char* ErrorCodeName(ErrorCode code);

/// Growable byte buffer frames are encoded into / decoded from.
using Buffer = std::vector<uint8_t>;

struct FrameHeader {
  uint32_t payload_bytes = 0;
  FrameType type = FrameType::kHello;
};

struct HelloFrame {
  uint32_t magic = kProtocolMagic;
  uint16_t version = kProtocolVersion;
  uint16_t flags = 0;  ///< reserved, must be zero
};

/// Server self-description sent after a successful handshake.
struct WelcomeFrame {
  uint16_t version = kProtocolVersion;
  uint8_t paged = 0;    ///< 1 = out-of-core OCT2 backend, 0 = in-memory
  uint8_t dynamic = 0;  ///< 1 = a deformer is bound; STEP advances it
  uint64_t num_vertices = 0;
  uint32_t page_bytes = 0;  ///< 0 for the in-memory backend
  /// Coalescing cap: batches above this execute alone, so clients that
  /// care about latency should split requests at this size.
  uint32_t max_batch_queries = 0;
};

/// Per-batch execution statistics attached to every RESULT frame: the
/// engine's `PhaseStats` of the coalesced batch that served the request,
/// plus how big that batch was. With a single active client the batch
/// contains exactly the request's queries and the counters equal the
/// in-process engine's; under coalescing they are batch-scoped.
struct BatchStatsWire {
  /// The WIRE lines of the phase and page-I/O tables (octopus/
  /// phase_stats.h, storage/page.h), in that order, at wire width.
  /// `merge_nanos` arrived in v5; the lease counters
  /// (`lease_hits`/`pages_leased`/`pages_distinct`) in v4: under the
  /// leased-page discipline `page_hits + page_misses` prices a page once
  /// per batch (at lease acquisition), `lease_hits` counts the free
  /// re-reads through held leases, and `pages_distinct` is the exact
  /// distinct-page count the priced accesses approximate.
  OCTOPUS_PHASE_FIELDS(OCTOPUS_STATS_WIRE_DECLARE, OCTOPUS_STATS_SKIP)
  OCTOPUS_PAGE_IO_FIELDS(OCTOPUS_STATS_WIRE_DECLARE, OCTOPUS_STATS_SKIP)
  uint32_t batch_queries = 0;   ///< queries in the coalesced batch
  uint32_t batch_requests = 0;  ///< client requests coalesced into it
  /// v6: the flight-recorder trace id the server assigned THIS request
  /// (not the batch — coalesced requests get distinct records). 0 when
  /// server-side tracing is disabled; clients use it to join their own
  /// per-call spans with a later TRACE_DUMP.
  uint64_t trace_id = 0;
  /// Mesh epoch the batch executed against (epoch-stamped RESULTs): the
  /// whole coalesced batch ran on this one pinned state, so every
  /// result in it is epoch-consistent. `epoch.step` doubles as the
  /// index staleness in simulation steps (the index is built at step 0
  /// and never maintained). {0, 0} on a static backend.
  engine::EpochInfo epoch;

  static BatchStatsWire FromPhaseStats(const PhaseStats& stats,
                                       uint32_t batch_queries,
                                       uint32_t batch_requests,
                                       engine::EpochInfo epoch);
  PhaseStats ToPhaseStats() const;
};

/// Cap on STEP's `steps` field: steps apply inline on the server's
/// event loop, so one frame must not be able to monopolize it with an
/// unbounded amount of O(V) work. Larger values are rejected as
/// malformed; advance further with multiple frames.
inline constexpr uint32_t kMaxStepsPerFrame = 1024;

/// STEP payload: advance the bound deformer `steps` times (0 = just
/// report the current epoch — legal on static servers too).
struct StepFrame {
  uint32_t steps = 0;
};

/// PIN_EPOCH / UNPIN_EPOCH payload: the epoch to (un)pin. For PIN, 0 =
/// pin whatever is current (the answer reports the real id). Pins are
/// per-session counters: an epoch stays exempt from history eviction
/// until every pin is released or the pinning session dies. PIN is
/// answered with EPOCH_INFO carrying the pinned epoch's identity;
/// UNPIN with the *current* epoch (the released one may be evicted by
/// the release itself). Both answer ERROR(EPOCH_GONE) when the named
/// epoch is not in the ring / not pinned by this session.
struct PinEpochFrame {
  uint64_t epoch = 0;
};

/// EPOCH_INFO payload: the answer to every STEP and PIN/UNPIN_EPOCH.
struct EpochInfoWire {
  uint64_t epoch = 0;
  uint32_t step = 0;
  uint8_t dynamic = 0;        ///< 1 = a deformer is bound
  uint8_t deformer_kind = 0;  ///< DeformerKind wire value
  /// Position pages rewritten by the last applied step (paged backends;
  /// 0 in-memory or before the first step) — the OCT2 delta-page cost.
  uint64_t last_step_pages_rewritten = 0;
};

/// The server's counters (`ServerMetrics`) and the STATS snapshot
/// (`ServerStatsWire`), one line each:
///   STATS|LOCAL(type, name, /metrics unit, /metrics name, help)
///   SNAPSHOT(type, name, help)
/// STATS and LOCAL lines are atomic counters in ServerMetrics; STATS and
/// SNAPSHOT lines are the STATS payload, one u64 each in line order.
/// SNAPSHOT values are derived when the snapshot is taken (the page-I/O
/// ones are the engine totals).
// clang-format off
#define OCTOPUS_SERVER_COUNTERS(STATS, SNAPSHOT, LOCAL) \
  STATS(uint64_t, connections_accepted, kCount, "octopus_connections_accepted_total", "TCP connections accepted.") \
  SNAPSHOT(uint64_t, connections_active, "Currently open sessions.") \
  STATS(uint64_t, frames_received, kCount, "octopus_frames_received_total", "Complete OCTP frames parsed.") \
  STATS(uint64_t, malformed_frames, kCount, "octopus_malformed_frames_total", "Frames rejected as malformed.") \
  STATS(uint64_t, queries_received, kCount, "octopus_queries_received_total", "Range queries received in QUERY_BATCH frames.") \
  STATS(uint64_t, queries_rejected, kCount, "octopus_queries_rejected_total", "Queries rejected (admission control or EPOCH_GONE).") \
  STATS(uint64_t, queries_executed, kCount, "octopus_queries_executed_total", "Queries executed by the engine.") \
  STATS(uint64_t, batches_executed, kCount, "octopus_batches_executed_total", "Coalesced engine batches executed.") \
  SNAPSHOT(uint64_t, latency_p50_nanos, "Request arrival to response enqueue.") \
  SNAPSHOT(uint64_t, latency_p95_nanos, "Request arrival to response enqueue.") \
  SNAPSHOT(uint64_t, latency_p99_nanos, "Request arrival to response enqueue.") \
  OCTOPUS_PAGE_IO_FIELDS(SNAPSHOT, OCTOPUS_STATS_SKIP) \
  SNAPSHOT(uint64_t, steps_applied, "Simulation steps the backend applied.") \
  LOCAL(uint64_t, connections_closed, kCount, "octopus_connections_closed_total", "TCP connections closed.") \
  LOCAL(uint64_t, results_sent, kCount, "octopus_results_sent_total", "RESULT frames enqueued.") \
  LOCAL(uint64_t, errors_sent, kCount, "octopus_errors_sent_total", "ERROR frames enqueued.") \
  LOCAL(uint64_t, slow_queries, kCount, "octopus_slow_queries_total", "Requests over the --slow-query-ms threshold.") \
  LOCAL(uint64_t, batches_quorum, kCount, "octopus_batches_quorum_total", "Coalesced batches dispatched on a complete quorum: every open query session had a request queued.") \
  LOCAL(int64_t, serialize_nanos_total, kNanos, "octopus_serialize_seconds_total", "Wall clock spent encoding RESULT frames.")
// clang-format on

/// Server metrics snapshot carried by the STATS frame.
struct ServerStatsWire {
  OCTOPUS_SERVER_COUNTERS(OCTOPUS_STATS_WIRE_DECLARE,
                          OCTOPUS_STATS_WIRE_DECLARE, OCTOPUS_STATS_SKIP)

  /// Mean queries per executed batch (0 when nothing executed yet).
  double CoalesceFactor() const {
    return batches_executed == 0
               ? 0.0
               : static_cast<double>(queries_executed) /
                     static_cast<double>(batches_executed);
  }
};

struct ErrorFrame {
  ErrorCode code = ErrorCode::kInternal;
  /// Request the error refers to; 0 for connection-level errors.
  uint64_t request_id = 0;
  std::string message;
};

/// TRACE_DUMP payload (v5): the server's flight-recorder ring, oldest
/// record first. `total_recorded` is the lifetime record count, so a
/// client can report "last N of M". Empty (count 0) when tracing is
/// disabled on the server — a valid answer, not an error.
struct TraceDumpWire {
  uint64_t total_recorded = 0;
  std::vector<obs::QueryTraceRecord> records;
};

/// Fixed wire size of one `obs::QueryTraceRecord`.
inline constexpr size_t kTraceRecordBytes = 136;

// --- Wire-layout lint -------------------------------------------------
//
// Named byte sizes of every fixed-layout OCTP block. Each is derived
// from the widths of the struct fields it carries, so adding or
// resizing a field without updating the constant (and docs/PROTOCOL.md
// — cross-checked by tools/check_wire_spec.py) is a compile error
// here, not a silent wire break discovered by a peer. The encoders are
// field-by-field little-endian (never a struct memcpy), so these
// constants — not sizeof(struct) — ARE the wire layout.

/// HELLO payload: magic u32, version u16, flags u16.
inline constexpr size_t kHelloPayloadBytes = 8;
static_assert(kHelloPayloadBytes ==
              sizeof(HelloFrame::magic) + sizeof(HelloFrame::version) +
                  sizeof(HelloFrame::flags));

/// WELCOME payload: version u16, paged u8, dynamic u8, num_vertices
/// u64, page_bytes u32, max_batch_queries u32.
inline constexpr size_t kWelcomePayloadBytes = 20;
static_assert(kWelcomePayloadBytes ==
              sizeof(WelcomeFrame::version) + sizeof(WelcomeFrame::paged) +
                  sizeof(WelcomeFrame::dynamic) +
                  sizeof(WelcomeFrame::num_vertices) +
                  sizeof(WelcomeFrame::page_bytes) +
                  sizeof(WelcomeFrame::max_batch_queries));

/// QUERY_BATCH fixed header before the boxes (v6): request_id u64,
/// count u32, reserved u32, epoch u64, client_span_id u64.
inline constexpr size_t kQueryBatchFixedBytes = 32;
static_assert(kQueryBatchFixedBytes ==
              sizeof(uint64_t) + sizeof(uint32_t) + sizeof(uint32_t) +
                  sizeof(uint64_t) + sizeof(uint64_t));

/// One query box: 6 f32 (min.xyz, max.xyz).
inline constexpr size_t kQueryBoxBytes = 24;
static_assert(kQueryBoxBytes == 6 * sizeof(float));

/// RESULT fixed bytes before the batch-stats block: request_id u64,
/// count u32, reserved u32.
inline constexpr size_t kResultFixedBytes = 16;
static_assert(kResultFixedBytes ==
              sizeof(uint64_t) + sizeof(uint32_t) + sizeof(uint32_t));

/// Adds the wire width of a table line's field of `Record` to `bytes`.
#define OCTOPUS_ADD_WIRE_BYTES(type, name, ...) bytes += sizeof(Record::name);

/// The batch-stats block every RESULT carries (v6: 160 bytes). Field
/// order on the wire: the 4 phase i64s, the 12 u64 counters, the two
/// batch u32s, epoch u64 + step u32 + reserved u32, trace_id u64.
inline constexpr size_t kBatchStatsBytes = 160;
static_assert(kBatchStatsBytes == [] {
  using Record = BatchStatsWire;
  size_t bytes = 0;
  OCTOPUS_PHASE_FIELDS(OCTOPUS_ADD_WIRE_BYTES, OCTOPUS_STATS_SKIP)
  OCTOPUS_PAGE_IO_FIELDS(OCTOPUS_ADD_WIRE_BYTES, OCTOPUS_STATS_SKIP)
  return bytes + sizeof(Record::batch_queries) +
         sizeof(Record::batch_requests) + sizeof(engine::EpochInfo::epoch) +
         sizeof(engine::EpochInfo::step) + sizeof(uint32_t) /* reserved */ +
         sizeof(Record::trace_id);
}());

/// STATS payload: 18 u64 counters, in table order.
inline constexpr size_t kStatsPayloadBytes = 144;
static_assert(kStatsPayloadBytes == [] {
  using Record = ServerStatsWire;
  size_t bytes = 0;
  OCTOPUS_SERVER_COUNTERS(OCTOPUS_ADD_WIRE_BYTES, OCTOPUS_ADD_WIRE_BYTES,
                          OCTOPUS_STATS_SKIP)
  return bytes;
}());

/// STEP payload: steps u32, reserved u32.
inline constexpr size_t kStepPayloadBytes = 8;
static_assert(kStepPayloadBytes ==
              sizeof(StepFrame::steps) + sizeof(uint32_t));

/// EPOCH_INFO payload: epoch u64, step u32, dynamic u8, deformer u8,
/// reserved u16, last_step_pages_rewritten u64.
inline constexpr size_t kEpochInfoPayloadBytes = 24;
static_assert(kEpochInfoPayloadBytes ==
              sizeof(EpochInfoWire::epoch) + sizeof(EpochInfoWire::step) +
                  sizeof(EpochInfoWire::dynamic) +
                  sizeof(EpochInfoWire::deformer_kind) +
                  sizeof(uint16_t) /* reserved */ +
                  sizeof(EpochInfoWire::last_step_pages_rewritten));

/// PIN_EPOCH / UNPIN_EPOCH payload: epoch u64.
inline constexpr size_t kPinEpochPayloadBytes = 8;
static_assert(kPinEpochPayloadBytes == sizeof(PinEpochFrame::epoch));

/// ERROR fixed bytes before the message: code u16, reserved u16,
/// request_id u64, message length u32.
inline constexpr size_t kErrorFixedBytes = 16;
static_assert(kErrorFixedBytes ==
              sizeof(uint16_t) + sizeof(uint16_t) + sizeof(uint64_t) +
                  sizeof(uint32_t));

/// TRACE_DUMP fixed bytes before the records: total_recorded u64,
/// count u32, reserved u32.
inline constexpr size_t kTraceDumpFixedBytes = 16;
static_assert(kTraceDumpFixedBytes ==
              sizeof(TraceDumpWire::total_recorded) + sizeof(uint32_t) +
                  sizeof(uint32_t));

// One trace record: 4 u64 ids, 4 u32 batch shape fields, 8 i64 phase
// nanos, 3 u64 counters — 136 bytes, the constant TRACE_DUMP sizing
// and parsing already rely on.
static_assert(kTraceRecordBytes == [] {
  using Record = obs::QueryTraceRecord;
  size_t bytes = 0;
  OCTOPUS_TRACE_RECORD_FIELDS(OCTOPUS_ADD_WIRE_BYTES)
  return bytes;
}());

#undef OCTOPUS_ADD_WIRE_BYTES

// --- Encoding: appends one complete frame (header + payload) ---

void AppendHello(Buffer* out, const HelloFrame& hello);
void AppendWelcome(Buffer* out, const WelcomeFrame& welcome);
/// `epoch` selects the mesh state to execute against: 0 = the server's
/// current epoch (the default every latency-path client wants), any
/// other value = that exact historical epoch (EPOCH_GONE if evicted).
/// `client_span_id` (v6) is the caller's span identity for this
/// request, or 0 for none; the server carries it into its slow-query
/// log so client and server logs correlate line-for-line.
void AppendQueryBatch(Buffer* out, uint64_t request_id,
                      std::span<const AABB> boxes, uint64_t epoch = 0,
                      uint64_t client_span_id = 0);
/// `per_query` are the request's result slots, in request query order.
void AppendResult(Buffer* out, uint64_t request_id,
                  const BatchStatsWire& stats,
                  std::span<const std::vector<VertexId>> per_query);
/// Zero-copy variant of `AppendResult`: encodes only the frame's fixed
/// bytes — header, request id, query count, reserved word, batch-stats
/// block, then the n per-query count words contiguously — and patches
/// the header's payload length to the FULL `ResultPayloadBytes`. The
/// writer owes the wire query i's vertex ids immediately after count
/// word i (gathered via iovec; see server/io_pipeline.h), which is what
/// lets RESULT vectors go out without ever being memcpy'd into a frame
/// buffer.
void AppendResultMeta(Buffer* out, uint64_t request_id,
                      const BatchStatsWire& stats,
                      std::span<const std::vector<VertexId>> per_query);
/// Bytes of a RESULT frame from its header through the batch-stats
/// block — the offset of the first per-query count word in an
/// `AppendResultMeta` buffer.
inline constexpr size_t kResultMetaBytesBeforeCounts =
    kFrameHeaderBytes + kResultFixedBytes + kBatchStatsBytes;
void AppendStatsRequest(Buffer* out);
void AppendStats(Buffer* out, const ServerStatsWire& stats);
void AppendError(Buffer* out, const ErrorFrame& error);
void AppendStep(Buffer* out, const StepFrame& step);
void AppendEpochInfo(Buffer* out, const EpochInfoWire& info);
void AppendPinEpoch(Buffer* out, const PinEpochFrame& pin);
void AppendUnpinEpoch(Buffer* out, const PinEpochFrame& unpin);
void AppendTraceDumpRequest(Buffer* out);
void AppendTraceDump(Buffer* out, const TraceDumpWire& dump);

// --- Decoding ---

/// Parses the fixed header from the first `kFrameHeaderBytes` of `data`
/// (which must hold at least that many bytes). Rejects unknown frame
/// types (InvalidArgument) and payloads above `kMaxFramePayloadBytes`
/// (ResourceExhausted, so callers can answer FRAME_TOO_LARGE).
Result<FrameHeader> ParseFrameHeader(std::span<const uint8_t> data);

/// Exact RESULT payload size for a request of these result sets — lets
/// the server check against `kMaxFramePayloadBytes` before encoding.
size_t ResultPayloadBytes(
    std::span<const std::vector<VertexId>> per_query);

/// Each parser consumes exactly one frame's payload (not the header) and
/// fails with InvalidArgument on any size/content mismatch.
Status ParseHello(std::span<const uint8_t> payload, HelloFrame* out);
Status ParseWelcome(std::span<const uint8_t> payload, WelcomeFrame* out);
Status ParseQueryBatch(std::span<const uint8_t> payload,
                       uint64_t* request_id, std::vector<AABB>* boxes,
                       uint64_t* epoch, uint64_t* client_span_id);
Status ParseResult(std::span<const uint8_t> payload, uint64_t* request_id,
                   BatchStatsWire* stats,
                   std::vector<std::vector<VertexId>>* per_query);
Status ParseStats(std::span<const uint8_t> payload, ServerStatsWire* out);
Status ParseError(std::span<const uint8_t> payload, ErrorFrame* out);
Status ParseStep(std::span<const uint8_t> payload, StepFrame* out);
Status ParseEpochInfo(std::span<const uint8_t> payload, EpochInfoWire* out);
/// Parses either PIN_EPOCH or UNPIN_EPOCH (identical payloads; the
/// frame type in the header distinguishes them).
Status ParsePinEpoch(std::span<const uint8_t> payload, PinEpochFrame* out);
Status ParseTraceDump(std::span<const uint8_t> payload, TraceDumpWire* out);
/// Checks the payload of an empty-payload verb (STATS_REQUEST,
/// TRACE_DUMP_REQUEST); `name` labels the error.
Status ParseEmpty(std::span<const uint8_t> payload, const char* name);

}  // namespace octopus::server

#endif  // OCTOPUS_SERVER_PROTOCOL_H_
