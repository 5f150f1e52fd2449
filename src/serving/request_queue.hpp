// Bounded request-admission queue — stage 1 of the staged serving pipeline
// (serving/pipeline.hpp, DESIGN.md §10.1).
//
// The trace driver admits arrivals with try_push and counts rejections as
// ServingReport::backpressure_events (bounded-capacity backpressure, so a
// traffic spike queues at the edge instead of ballooning resident memory).
// Before every scheduling decision it takes the whole admitted set in
// deadline order with drain_by_deadline — the shape DAS's pending-set scan
// wants (paper Algorithm 1 sorts N^D_t by earliest deadline).
//
// Not thread-safe: the serving coordinator owns the queue and is its only
// caller. A concurrent ingest front-end would need its own synchronized
// hand-off in front of it.
#pragma once

#include <cstddef>
#include <vector>

#include "batching/request.hpp"

namespace tcb {

class RequestQueue {
 public:
  /// `capacity` >= 1: the backpressure bound on admitted-but-unscheduled
  /// requests (TCB_CHECK'd).
  explicit RequestQueue(std::size_t capacity);

  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

  /// Admits `r`; false (dropping `r`) when the queue is full.
  bool try_push(Request r);

  /// Scheduler drain: removes *all* admitted requests and returns them
  /// sorted by (deadline, arrival, id) — earliest-deadline first, the order
  /// DAS's deadline-aware set N^D_t consumes.
  std::vector<Request> drain_by_deadline();

  /// Admitted-but-undrained count.
  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }

 private:
  std::size_t capacity_;
  std::vector<Request> items_;  ///< admission order
};

}  // namespace tcb
