// Copyright 2026 The OCTOPUS Reproduction Authors
#include "server/batch_scheduler.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace octopus::server {

bool BatchScheduler::Enqueue(PendingRequest request) {
  const size_t queries = request.boxes.size();
  // An empty queue always admits, even a request larger than the bound
  // by itself — mirroring the batch cap's execute-alone rule, so an
  // oversized request is served (alone) rather than rejected forever.
  if (!pending_.empty() &&
      pending_query_count_ + queries > options_.max_pending_queries) {
    return false;
  }
  if (request.epoch != 0) {
    // Historical: runs alone, outside the quorum and the backlog count.
    historical_.push_back(std::move(request));
    return true;
  }
  SessionState& session = sessions_[request.session_id];
  if (!session.in_quorum) {
    session.in_quorum = true;
  } else if (session.pending == 0) {
    --quorum_idle_;
  }
  ++session.pending;
  pending_query_count_ += queries;
  pending_.push_back(std::move(request));
  return true;
}

void BatchScheduler::JoinQuorum(uint64_t session_id) {
  SessionState& session = sessions_[session_id];
  if (session.in_quorum) return;
  session.in_quorum = true;
  if (session.pending == 0) ++quorum_idle_;
}

void BatchScheduler::LeaveQuorum(uint64_t session_id) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end() || !it->second.in_quorum) return;
  it->second.in_quorum = false;
  if (it->second.pending == 0) {
    --quorum_idle_;
    sessions_.erase(it);
  }
}

int64_t BatchScheduler::WindowClosesNanos() const {
  const int64_t arrival = pending_.front().arrival_nanos;
  const int64_t window = std::max<int64_t>(options_.window_nanos, 0);
  constexpr int64_t kNever = std::numeric_limits<int64_t>::max();
  return arrival > kNever - window ? kNever : arrival + window;
}

BatchScheduler::Trigger BatchScheduler::DueTrigger(int64_t now_nanos) const {
  if (!historical_.empty()) return Trigger::kHistorical;
  if (pending_.empty()) return Trigger::kNone;
  if (pending_query_count_ >= options_.max_batch_queries) {
    return Trigger::kSize;
  }
  // Nobody left to wait for: every member already has a request queued.
  if (quorum_idle_ == 0) return Trigger::kQuorum;
  if (now_nanos >= WindowClosesNanos()) return Trigger::kWindow;
  return Trigger::kNone;
}

int64_t BatchScheduler::NanosUntilDue(int64_t now_nanos) const {
  if (!HasPending()) return -1;
  if (DueTrigger(now_nanos) != Trigger::kNone) return 0;
  return WindowClosesNanos() - now_nanos;
}

bool BatchScheduler::ShouldExecute(int64_t now_nanos) const {
  return DueTrigger(now_nanos) != Trigger::kNone;
}

void BatchScheduler::ExecuteReady(VersionedBackend* backend,
                                  std::vector<CompletedRequest>* completed,
                                  ServerMetrics* metrics,
                                  int64_t dispatch_nanos) {
  // The oldest historical request runs first and alone: a batch reads
  // one epoch, so it shares its sweep with nobody, and it never waited
  // on a window, so its queue wait is 0.
  const bool historical = !historical_.empty();
  std::deque<PendingRequest>& queue = historical ? historical_ : pending_;
  if (queue.empty()) return;
  const bool quorum =
      !historical && DueTrigger(dispatch_nanos) == Trigger::kQuorum;

  // Pack whole requests FIFO until the size cap. Always take at least
  // one, so an oversized request executes alone rather than starving.
  size_t take = 0;
  size_t batch_queries = 0;
  while (take < queue.size()) {
    const size_t next = queue[take].boxes.size();
    if (take > 0 && (historical ||
                     batch_queries + next > options_.max_batch_queries)) {
      break;
    }
    batch_queries += next;
    ++take;
  }

  batch_.boxes.clear();
  batch_.boxes.reserve(batch_queries);
  for (size_t i = 0; i < take; ++i) {
    batch_.boxes.insert(batch_.boxes.end(), queue[i].boxes.begin(),
                        queue[i].boxes.end());
  }

  PhaseStats batch_stats;
  const Status status = backend->ExecuteAt(
      queue.front().epoch, batch_.View(), &batch_results_, &batch_stats);
  if (status.ok()) {
    metrics->batches_executed += 1;
    if (quorum) metrics->batches_quorum += 1;
    metrics->queries_executed += batch_queries;
    metrics->MergeEngine(batch_stats);
  } else {
    // Only a historical epoch can be gone; the server answers EPOCH_GONE.
    metrics->queries_rejected += batch_queries;
  }

  const BatchStatsWire wire = BatchStatsWire::FromPhaseStats(
      batch_stats, static_cast<uint32_t>(batch_queries),
      static_cast<uint32_t>(take), batch_results_.epoch);

  // Demultiplex: each request gets its contiguous slice of the batch.
  size_t offset = 0;
  for (size_t i = 0; i < take; ++i) {
    PendingRequest& request = queue[i];
    CompletedRequest done;
    done.session_id = request.session_id;
    done.request_id = request.request_id;
    done.arrival_nanos = request.arrival_nanos;
    done.dispatch_nanos = historical ? request.arrival_nanos : dispatch_nanos;
    done.client_span_id = request.client_span_id;
    done.status = status;
    done.stats = wire;
    if (status.ok()) {
      done.per_query.reserve(request.boxes.size());
      for (size_t q = 0; q < request.boxes.size(); ++q) {
        done.per_query.push_back(
            std::move(batch_results_.per_query[offset + q]));
      }
    }
    offset += request.boxes.size();
    completed->push_back(std::move(done));
    if (historical) continue;

    auto session = sessions_.find(request.session_id);
    if (--session->second.pending == 0) {
      if (session->second.in_quorum) {
        ++quorum_idle_;
      } else {
        sessions_.erase(session);
      }
    }
  }

  queue.erase(queue.begin(), queue.begin() + static_cast<ptrdiff_t>(take));
  if (!historical) pending_query_count_ -= batch_queries;
}

void BatchScheduler::DropSession(uint64_t session_id) {
  std::erase_if(historical_, [session_id](const PendingRequest& r) {
    return r.session_id == session_id;
  });
  auto session = sessions_.find(session_id);
  if (session == sessions_.end()) return;
  if (session->second.in_quorum && session->second.pending == 0) {
    --quorum_idle_;
  }
  sessions_.erase(session);
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->session_id == session_id) {
      pending_query_count_ -= it->boxes.size();
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace octopus::server
