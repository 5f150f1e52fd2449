#include "serving/request_queue.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace tcb {

RequestQueue::RequestQueue(std::size_t capacity) : capacity_(capacity) {
  TCB_CHECK(capacity_ >= 1, "RequestQueue: capacity must be >= 1");
}

bool RequestQueue::try_push(Request r) {
  if (items_.size() >= capacity_) return false;
  items_.push_back(std::move(r));
  return true;
}

std::vector<Request> RequestQueue::drain_by_deadline() {
  std::vector<Request> out;
  out.swap(items_);
  std::sort(out.begin(), out.end(), [](const Request& a, const Request& b) {
    if (a.deadline != b.deadline) return a.deadline < b.deadline;
    if (a.arrival != b.arrival) return a.arrival < b.arrival;
    return a.id < b.id;
  });
  return out;
}

}  // namespace tcb
