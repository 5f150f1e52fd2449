// Clean control for no-blocking-under-lock: the two sanctioned shapes.
// Worker::drain drops its lock before the blocking join, and
// Worker::wait_for_item uses the direct cv.wait(lock) pattern — the one
// blocking call that is exempt at its own site, because the wait releases
// the mutex while sleeping.  (No `// expect:` lines on purpose.)

namespace demo {

class TaskGroup {
 public:
  void join() { joined_ = true; }

 private:
  bool joined_ = false;
};

class Worker {
 public:
  void drain(TaskGroup& g) {
    {
      tcb::MutexLock l(mu_);
      pending_ = 0;
    }  // lock released before the blocking call: clean
    g.join();
  }

  void wait_for_item() {
    tcb::MutexLock l(mu_);
    while (pending_ == 0) cv_.wait(l);  // sanctioned pattern: exempt
  }

 private:
  tcb::Mutex mu_;
  tcb::CondVar cv_;
  int pending_ = 0;
};

}  // namespace demo
