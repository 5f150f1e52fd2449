// Fixture: a blocking call made while a tcb::Mutex is held.  The class is
// named TaskGroup on purpose — TaskGroup::join is a blocking seed for
// no-blocking-under-lock (the real one waits on every in-flight task), so
// Worker::drain calling g.join() while holding its own mutex risks deadlock
// and unbounded lock hold times.
// expect: no-blocking-under-lock

namespace demo {

class TaskGroup {
 public:
  void join() { joined_ = true; }  // seed by name; body irrelevant

 private:
  bool joined_ = false;
};

class Worker {
 public:
  void drain(TaskGroup& g) {
    tcb::MutexLock l(mu_);
    pending_ = 0;
    g.join();  // flagged: blocking call under Worker::mu_
  }

 private:
  tcb::Mutex mu_;
  int pending_ = 0;
};

}  // namespace demo
