// RequestQueue (src/serving/request_queue.hpp) — the bounded admission
// queue the serving coordinator owns: the capacity bound and the
// deadline-ordered drain.
#include "serving/request_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/check.hpp"

namespace tcb {
namespace {

Request make_request(RequestId id, double deadline, double arrival = 0.0) {
  Request r;
  r.id = id;
  r.arrival = arrival;
  r.deadline = deadline;
  r.length = 4;
  return r;
}

TEST(RequestQueueTest, RejectsZeroCapacity) {
  EXPECT_THROW(RequestQueue{0}, CheckError);
}

TEST(RequestQueueTest, TryPushHonorsCapacity) {
  RequestQueue q(2);
  EXPECT_TRUE(q.try_push(make_request(1, 1.0)));
  EXPECT_TRUE(q.try_push(make_request(2, 2.0)));
  EXPECT_FALSE(q.try_push(make_request(3, 3.0))) << "queue is full";
  ASSERT_FALSE(q.drain_by_deadline().empty());
  EXPECT_TRUE(q.try_push(make_request(3, 3.0))) << "space freed by drain";
}

TEST(RequestQueueTest, DrainByDeadlineSortsAndEmpties) {
  RequestQueue q(8);
  ASSERT_TRUE(q.try_push(make_request(1, 5.0)));
  ASSERT_TRUE(q.try_push(make_request(2, 1.0)));
  ASSERT_TRUE(q.try_push(make_request(3, 3.0, /*arrival=*/0.5)));
  ASSERT_TRUE(q.try_push(make_request(4, 3.0, /*arrival=*/0.25)));
  const std::vector<Request> drained = q.drain_by_deadline();
  ASSERT_EQ(drained.size(), 4u);
  EXPECT_EQ(drained[0].id, 2) << "earliest deadline first";
  EXPECT_EQ(drained[1].id, 4) << "deadline tie broken by arrival";
  EXPECT_EQ(drained[2].id, 3);
  EXPECT_EQ(drained[3].id, 1);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.drain_by_deadline().empty());
}

}  // namespace
}  // namespace tcb
