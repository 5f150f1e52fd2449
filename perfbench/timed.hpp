// Timing decorators for the serving benchmark.
//
// Each decorator implements one public serving interface (Scheduler,
// ExecutionBackend, SteppedExecution), forwards every call unchanged to the
// wrapped object, and times the call from outside with the steady clock. The
// pipeline under test is the real ServingPipeline; it cannot tell a
// decorated collaborator from the bare one, which main.cpp's transparency
// check proves on every run (same report accounting, same outputs).
//
// All measurements land in one Probe. When the probe carries a SpanLog the
// decorators also record a span per call (and one lifecycle span per
// request); without one they record nothing but their samples.
//
// Threading: the benchmark runs every pipeline with one worker, so all
// decorator calls come from the pipeline's coordinator thread and the Probe
// needs no locking.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "sched/scheduler.hpp"
#include "serving/backend.hpp"
#include "util/stats.hpp"

namespace tcb::perfbench {

/// Steady-clock seconds since the first call in this process.
[[nodiscard]] double now_s();

/// One recorded interval. Layer spans have request == -1; a request's
/// lifecycle span (engine entry -> final output) carries its id.
struct Span {
  const char* name = "";  ///< static string
  double begin = 0.0;     ///< now_s() seconds
  double end = 0.0;
  RequestId request = -1;
};

/// In-memory span recorder; written out once, after the measured runs.
class SpanLog {
 public:
  void add(const char* name, double begin, double end, RequestId request = -1) {
    spans_.push_back(Span{name, begin, end, request});
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Per layer-span name: summed self time, i.e. each span's duration minus
  /// the part of it covered by the spans nested directly inside it.
  /// Lifecycle spans are excluded (they overlap rather than nest).
  struct SelfTime {
    std::string name;
    std::size_t count = 0;
    double self_s = 0.0;
  };
  [[nodiscard]] std::vector<SelfTime> self_times() const;

  /// Chrome trace-event JSON (opens in Perfetto / chrome://tracing): layer
  /// spans as complete events on one track, request lifecycles as async
  /// events keyed by request id.
  void write_chrome_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Everything the decorators measure over one set of pipeline runs.
struct Probe {
  SpanLog* log = nullptr;  ///< non-null: record spans (the traced run)

  // sched: Scheduler::select / select_for_slots wall time and pending size.
  Samples select_ms;
  Samples slots_ms;
  Samples pending;

  // nn: batch encodes (begin_stepped, or execute for run-to-completion),
  // decode iterations and splices.
  Samples encode_ms;
  double encode_tokens = 0.0;
  Samples step_ms;
  Samples tracks_per_step;
  Samples splice_ms;
  double finish_s = 0.0;

  // batching: over the BatchWork plans the backend received.
  double plan_used_tokens = 0.0;
  double plan_grid_tokens = 0.0;  ///< rows * packed width per plan

  // Per-request wall latencies, from engine entry (begin_stepped / splice /
  // execute call) on.
  Samples ttft_ms;
  Samples itl_ms;
  Samples latency_ms;
  std::size_t emitted = 0;  ///< outputs emitted (tokens, or labels)

  /// Decorator wall time inside the scheduler and the backend.
  [[nodiscard]] double sched_seconds() const {
    return (select_ms.sum() + slots_ms.sum()) / 1e3;
  }
  [[nodiscard]] double execute_seconds() const {
    return (encode_ms.sum() + step_ms.sum() + splice_ms.sum()) / 1e3 +
           finish_s;
  }
};

class TimedScheduler final : public Scheduler {
 public:
  TimedScheduler(const Scheduler& inner, Probe& probe)
      : Scheduler(inner.config()), inner_(inner), probe_(probe) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] Selection select(
      double now, const std::vector<Request>& pending) const override;
  [[nodiscard]] std::vector<std::vector<Request>> select_for_slots(
      double now, const std::vector<Index>& slot_widths,
      std::vector<Request>& pending) const override;

 private:
  const Scheduler& inner_;
  Probe& probe_;
};

class TimedBackend final : public ExecutionBackend {
 public:
  TimedBackend(const ExecutionBackend& inner, Probe& probe)
      : inner_(inner), probe_(probe) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] double batch_seconds(const BatchPlan& plan) const override {
    return inner_.batch_seconds(plan);
  }
  [[nodiscard]] BatchExecution execute(const BatchWork& work) const override;
  [[nodiscard]] bool offload() const noexcept override {
    return inner_.offload();
  }
  [[nodiscard]] std::unique_ptr<SteppedExecution> begin_stepped(
      const BatchWork& work) const override;
  void validate_trace(const std::vector<Request>& trace) const override {
    inner_.validate_trace(trace);
  }

 private:
  const ExecutionBackend& inner_;
  Probe& probe_;
};

}  // namespace tcb::perfbench
