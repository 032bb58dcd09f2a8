// Copyright 2026 The OCTOPUS Reproduction Authors
// Cross-client batch coalescing: the scheduler collects range-query
// requests arriving from many connections and folds them into one
// `engine::QueryBatch` as soon as (a) enough queries have accumulated,
// (b) every open query session has a request queued (the quorum), or
// (c) the oldest pending request's coalescing window expires — then
// executes once on the backend and demultiplexes per-request results.
// This is where the paper's "tens to hundreds of queries per time step"
// batching meets a multi-tenant server: concurrent monitoring clients
// share one probe->walk->crawl sweep instead of one per request, and
// the window only bounds how long a batch waits for a session that is
// slow or silent — once nobody else can join, waiting buys nothing.
//
// Query sessions: a session joins the quorum when its handshake is
// accepted and on every admitted current-epoch request, and leaves when
// it sends anything else (a control verb or a historical-epoch request)
// or closes. The server tells the scheduler only about membership
// *changes*; pending counts are tracked here.
//
// Historical-epoch requests share the admission bound but not the
// quorum: a batch reads one epoch, so each runs alone, queued apart and
// due at once, ahead of any coalesced batch.
//
// No threads of its own: the server's scheduler thread drives it under
// one mutex, asking `NanosUntilDue` to size its condition-variable wait
// and calling `ExecuteReady` whenever a batch is due. Admission
// (`Enqueue`, from the I/O threads) synchronizes on that same mutex, so
// the scheduler never needs internal locking.
#ifndef OCTOPUS_SERVER_BATCH_SCHEDULER_H_
#define OCTOPUS_SERVER_BATCH_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/aabb.h"
#include "common/status.h"
#include "engine/query_batch.h"
#include "server/metrics.h"
#include "server/protocol.h"
#include "server/versioned_backend.h"

namespace octopus::server {

struct SchedulerOptions {
  /// Coalescing window: a pending request executes at latest this long
  /// after it arrived — earlier once every query session has a request
  /// queued. 0 = execute as soon as the loop drains its sockets (still
  /// coalescing whatever arrived in the same poll round).
  int64_t window_nanos = 2'000'000;  // 2 ms
  /// A batch executes early once it holds at least this many queries.
  /// Whole requests are packed; a single request larger than the cap
  /// executes alone (the cap tunes coalescing, it is not a protocol
  /// limit).
  size_t max_batch_queries = 1024;
  /// Admission bound: total queries waiting to execute. Requests that
  /// would exceed it are rejected with an OVERLOADED error frame —
  /// except into an empty queue, which always admits, so a single
  /// request larger than the bound is served alone instead of being
  /// rejected forever.
  size_t max_pending_queries = 8192;
};

/// One client request waiting for execution.
struct PendingRequest {
  uint64_t session_id = 0;
  uint64_t request_id = 0;
  std::vector<AABB> boxes;
  int64_t arrival_nanos = 0;  ///< event-loop monotonic clock
  /// Client-propagated span id (v6); 0 = the client sent none. Carried
  /// through execution into the slow-query log, never interpreted.
  uint64_t client_span_id = 0;
  /// Epoch the request reads; 0 = current (coalesces with other
  /// requests), anything else a historical epoch (runs alone).
  uint64_t epoch = 0;
};

/// One executed request, ready to encode as a RESULT frame.
struct CompletedRequest {
  uint64_t session_id = 0;
  uint64_t request_id = 0;
  int64_t arrival_nanos = 0;
  /// When the batch holding this request started executing — the
  /// request's queue wait is `dispatch_nanos - arrival_nanos` (0 for a
  /// historical request, which never waits on a window).
  int64_t dispatch_nanos = 0;
  /// Non-OK when the request could not execute: its historical epoch is
  /// gone (answered EPOCH_GONE; `per_query` is then empty).
  Status status;
  BatchStatsWire stats;  ///< stats of the coalesced batch that served it
  /// The request's slice of the batch results, in request query order.
  std::vector<std::vector<VertexId>> per_query;
  uint64_t client_span_id = 0;  ///< propagated from the request (v6)
};

/// Not internally synchronized BY DESIGN: the server declares its
/// `scheduler_` field `GUARDED_BY(sched_mu_)`, so clang's
/// thread-safety analysis rejects any unlocked call at compile time —
/// a mutex here would re-buy that guarantee at runtime cost and hide
/// the admission/execution critical sections the server deliberately
/// shares (admission blocks while a batch runs).
class BatchScheduler {
 public:
  explicit BatchScheduler(SchedulerOptions options) : options_(options) {}

  const SchedulerOptions& options() const { return options_; }

  /// Admission control: accepts the request, or returns false (queue
  /// full — caller sends OVERLOADED) leaving the queues untouched.
  /// Zero-query requests are accepted (they complete with an empty
  /// result at the next execution point). An accepted current-epoch
  /// request (re)joins its session to the quorum; a historical one
  /// (`epoch != 0`) is queued apart and never counted in
  /// `pending_queries`, but faces the same bound.
  bool Enqueue(PendingRequest request);

  /// Adds a session to the quorum (idempotent). A member with nothing
  /// queued holds a batch back — up to the window.
  void JoinQuorum(uint64_t session_id);
  /// Removes a session from the quorum (idempotent); its queued
  /// requests stay queued. May complete the quorum: the caller wakes
  /// the scheduler thread.
  void LeaveQuorum(uint64_t session_id);

  bool HasPending() const {
    return !pending_.empty() || !historical_.empty();
  }
  /// Queries in the coalescing backlog (historical requests excluded).
  size_t pending_queries() const { return pending_query_count_; }

  /// Nanoseconds until a batch is due: 0 when one is due now (a queued
  /// historical request, size trigger, complete quorum or expired
  /// window), -1 when nothing is pending, else the time left in the
  /// oldest request's window.
  int64_t NanosUntilDue(int64_t now_nanos) const;

  /// True when `ExecuteReady` would execute at least one batch now.
  bool ShouldExecute(int64_t now_nanos) const;

  /// Executes one batch on `backend` and appends one `CompletedRequest`
  /// per request in it to `completed`. The batch is the oldest
  /// historical request alone if one is queued, else pending requests
  /// packed FIFO (whole requests, up to the size cap) against the epoch
  /// the backend pins for the batch — every stamped RESULT of a batch
  /// carries that one epoch. Updates `metrics` (batch/query counters +
  /// engine totals; `batches_quorum` when the quorum was complete and
  /// the size trigger was not; `queries_rejected` when a historical
  /// epoch is gone). Call in a loop while `ShouldExecute`.
  /// `dispatch_nanos` (the loop's clock at the call) is stamped onto
  /// every coalesced request so the flight recorder can attribute
  /// queue wait.
  void ExecuteReady(VersionedBackend* backend,
                    std::vector<CompletedRequest>* completed,
                    ServerMetrics* metrics, int64_t dispatch_nanos = 0);

  /// Drops every pending request of a disconnected session, historical
  /// ones included, so its queries are not executed for nobody, and
  /// removes it from the quorum (which may complete it).
  void DropSession(uint64_t session_id);

 private:
  enum class Trigger : uint8_t { kNone, kHistorical, kSize, kQuorum, kWindow };
  /// Why a batch is due at `now_nanos`; kNone while none is.
  Trigger DueTrigger(int64_t now_nanos) const;
  /// When the oldest pending request's window closes (saturating).
  int64_t WindowClosesNanos() const;

  struct SessionState {
    uint32_t pending = 0;  ///< requests of the session in `pending_`
    bool in_quorum = false;
  };

  SchedulerOptions options_;
  std::deque<PendingRequest> pending_;
  size_t pending_query_count_ = 0;
  /// Historical-epoch requests, FIFO; each executes alone.
  std::deque<PendingRequest> historical_;
  /// Sessions in the quorum or with requests pending; an entry is
  /// erased once it is neither.
  std::unordered_map<uint64_t, SessionState> sessions_;
  /// Quorum members with nothing pending: the quorum is complete at 0.
  size_t quorum_idle_ = 0;
  // Scratch reused across batches.
  engine::QueryBatch batch_;
  engine::QueryBatchResult batch_results_;
};

}  // namespace octopus::server

#endif  // OCTOPUS_SERVER_BATCH_SCHEDULER_H_
