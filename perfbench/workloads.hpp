// The benchmark's named workloads and the serving stack each one runs on.
//
// Every workload feeds the paper's trace generator (src/workload) with the
// seed given on the command line, and runs the real ServingPipeline with
// one worker. perfbench/README.md records why each workload was chosen and
// which layer metrics should move which end-to-end metrics on it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "nn/classifier.hpp"
#include "nn/model.hpp"
#include "sched/scheduler.hpp"
#include "serving/backend.hpp"
#include "serving/cost_model.hpp"
#include "serving/pipeline.hpp"
#include "workload/trace.hpp"

namespace tcb::perfbench {

struct WorkloadSpec {
  std::string name;
  std::string scheduler;
  SchedulerConfig sched;
  PipelineConfig pipe;
  /// One round's trace (seed and ids are filled in per round).
  WorkloadConfig trace;
  /// Rounds every run makes at least; the sim_* metrics pool exactly these,
  /// so they are a function of the seed alone.
  std::size_t sim_rounds = 0;
  /// Trace duration of the transparency check's (smaller) trace.
  double check_duration = 0.0;

  ModelConfig model;
  InferenceOptions opts;
  Index n_classes = 0;  ///< > 0: encoder-only classification
};

/// nullptr for an unknown name.
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);
[[nodiscard]] std::vector<std::string> workload_names();

/// What set-up builds for a workload: the model (weights initialised), the
/// optional classification head, the cost model that prices simulated time,
/// the backend and the scheduler.
struct Stack {
  std::shared_ptr<const Seq2SeqModel> model;
  std::unique_ptr<ClassificationHead> head;
  std::unique_ptr<AnalyticalCostModel> cost;
  std::unique_ptr<ExecutionBackend> backend;
  std::unique_ptr<Scheduler> scheduler;
};
[[nodiscard]] Stack build_stack(const WorkloadSpec& spec);

/// The trace of round `round` of a run with `seed`; ids are offset by round
/// so they stay unique across a run's rounds.
[[nodiscard]] std::vector<Request> make_trace(const WorkloadSpec& spec,
                                              std::uint64_t seed,
                                              std::uint64_t round,
                                              double duration);

}  // namespace tcb::perfbench
