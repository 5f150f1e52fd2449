#include "core/tcb.hpp"

#include <stdexcept>
#include <utility>

namespace tcb {
namespace {

InferenceOptions engine_options(const TcbConfig& cfg) {
  InferenceOptions opts;
  opts.mode = cfg.scheme == Scheme::kConcatSlotted ? AttentionMode::kSlotted
                                                   : AttentionMode::kPureConcat;
  opts.max_decode_steps = cfg.max_decode_steps;
  opts.early_memory_cleaning = cfg.early_memory_cleaning;
  return opts;
}

PipelineConfig pipeline_config(const TcbConfig& cfg) {
  PipelineConfig pipe;
  pipe.scheme = cfg.scheme;
  pipe.fixed_slot_len = 0;  // Slotted-DAS picks z per batch
  pipe.workers = cfg.workers;
  pipe.continuous = cfg.continuous;
  return pipe;
}

}  // namespace

void TcbConfig::validate() const {
  model.validate();
  sched.validate();
  if (sched.row_capacity > model.max_len)
    throw std::invalid_argument(
        "TcbConfig: row_capacity exceeds the model's max_len");
  if (max_decode_steps <= 0)
    throw std::invalid_argument("TcbConfig: max_decode_steps must be >= 1");
  if (workers == 0)
    throw std::invalid_argument("TcbConfig: workers must be >= 1");
  // Constructs and discards to surface bad scheduler names early.
  (void)make_scheduler(scheduler, sched);
}

TcbSystem::TcbSystem(TcbConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.validate();
  model_ = std::make_shared<const Seq2SeqModel>(cfg_.model);
  scheduler_ = make_scheduler(cfg_.scheduler, cfg_.sched);
  analytical_ = std::make_unique<AnalyticalCostModel>(
      ModelConfig::paper_scale(), cfg_.hardware);
  engine_clock_ =
      std::make_unique<AnalyticalCostModel>(cfg_.model, cfg_.hardware);
}

ServeResult TcbSystem::run_pipeline(const ExecutionBackend& backend,
                                    const std::vector<Request>& trace) const {
  const VirtualClock clock;
  const ServingPipeline pipeline(*scheduler_, backend, clock,
                                 pipeline_config(cfg_));
  PipelineResult run = pipeline.run(trace);
  ServeResult result;
  result.responses = std::move(run.responses);
  result.failed = run.report.failed;
  result.total_utility = run.report.total_utility;
  result.makespan = run.report.makespan;
  result.batches = run.report.batches;
  result.peak_kv_bytes = run.peak_kv_bytes;
  result.early_freed_bytes = run.early_freed_bytes;
  result.reclaimable_kv_bytes = run.reclaimable_kv_bytes;
  result.report = std::move(run.report);
  return result;
}

ServingReport TcbSystem::simulate(const std::vector<Request>& trace) const {
  const AnalyticalBackend backend(*analytical_);
  const VirtualClock clock;
  const ServingPipeline pipeline(*scheduler_, backend, clock,
                                 pipeline_config(cfg_));
  return pipeline.run(trace).report;
}

ServeResult TcbSystem::serve(const std::vector<Request>& trace) const {
  const EngineBackend backend(model_, *engine_clock_, engine_options(cfg_));
  return run_pipeline(backend, trace);
}

ServeResult TcbSystem::serve_classify(const std::vector<Request>& trace,
                                      const ClassificationHead& head) const {
  // Encoder-only serving never decodes; the decode fields go unused.
  const EngineBackend backend(model_, *engine_clock_, engine_options(cfg_),
                              &head);
  return run_pipeline(backend, trace);
}

}  // namespace tcb
