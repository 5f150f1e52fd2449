// Unit tests for the staged ServingPipeline: configuration validation, the
// Clock contract (virtual => zero stage timings, wall => accumulating ones),
// per-worker busy accounting, the bounded-admission satellite counters, the
// max_batches safety valve at the pipeline level, and the continuous-mode
// guard against backends that cannot step a batch.
#include "serving/pipeline.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <string>

#include "sched/factory.hpp"
#include "workload/trace.hpp"

namespace tcb {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest()
      : cost_(ModelConfig::paper_scale(), HardwareProfile::v100_like()),
        backend_(cost_) {
    sched_cfg_.batch_rows = 16;
    sched_cfg_.row_capacity = 100;
    das_ = make_scheduler("das", sched_cfg_);
  }

  [[nodiscard]] static std::vector<Request> trace(double rate,
                                                  double duration = 2.0,
                                                  std::uint64_t seed = 5) {
    WorkloadConfig w;
    w.rate = rate;
    w.duration = duration;
    w.seed = seed;
    return generate_trace(w);
  }

  SchedulerConfig sched_cfg_;
  AnalyticalCostModel cost_;
  AnalyticalBackend backend_;
  std::unique_ptr<Scheduler> das_;
};

TEST_F(PipelineTest, RejectsDegenerateConfigs) {
  const VirtualClock clock;
  PipelineConfig cfg;
  cfg.workers = 0;
  EXPECT_THROW(ServingPipeline(*das_, backend_, clock, cfg),
               std::invalid_argument);
  cfg = {};
  cfg.admission_capacity = 0;
  EXPECT_THROW(ServingPipeline(*das_, backend_, clock, cfg),
               std::invalid_argument);
  cfg = {};
  cfg.scheme = Scheme::kConcatSlotted;
  cfg.fixed_slot_len = -1;
  EXPECT_THROW(ServingPipeline(*das_, backend_, clock, cfg),
               std::invalid_argument);
}

TEST_F(PipelineTest, EmptyTraceProducesEmptyRun) {
  const VirtualClock clock;
  const ServingPipeline pipeline(*das_, backend_, clock, {});
  const PipelineResult result = pipeline.run({});
  EXPECT_EQ(result.report.arrived, 0u);
  EXPECT_EQ(result.report.completed, 0u);
  EXPECT_EQ(result.report.batches, 0u);
  EXPECT_TRUE(result.responses.empty());
  EXPECT_DOUBLE_EQ(result.report.throughput, 0.0);
}

TEST_F(PipelineTest, VirtualClockZeroesEveryStageTiming) {
  const VirtualClock clock;
  PipelineConfig cfg;
  cfg.scheme = Scheme::kConcatPure;
  const PipelineResult result =
      ServingPipeline(*das_, backend_, clock, cfg).run(trace(300));
  EXPECT_GT(result.report.batches, 0u);
  EXPECT_DOUBLE_EQ(result.report.admission_seconds, 0.0);
  EXPECT_DOUBLE_EQ(result.report.scheduler_seconds, 0.0);
  EXPECT_DOUBLE_EQ(result.report.batching_seconds, 0.0);
  EXPECT_DOUBLE_EQ(result.report.execute_seconds, 0.0);
}

TEST_F(PipelineTest, WallClockAccumulatesStageTimings) {
  const WallClock clock;
  PipelineConfig cfg;
  cfg.scheme = Scheme::kConcatPure;
  const PipelineResult result =
      ServingPipeline(*das_, backend_, clock, cfg).run(trace(300));
  EXPECT_GT(result.report.batches, 0u);
  // Monotone clock reads around real work: every stage total is
  // non-negative, and selection (the Fig. 16 quantity) is strictly positive.
  EXPECT_GT(result.report.scheduler_seconds, 0.0);
  EXPECT_GE(result.report.admission_seconds, 0.0);
  EXPECT_GE(result.report.batching_seconds, 0.0);
  EXPECT_GE(result.report.execute_seconds, 0.0);
}

TEST_F(PipelineTest, WorkerBusyTimesSumToBusySeconds) {
  const VirtualClock clock;
  for (const std::size_t workers : {1u, 3u}) {
    PipelineConfig cfg;
    cfg.scheme = Scheme::kConcatPure;
    cfg.workers = workers;
    const PipelineResult result =
        ServingPipeline(*das_, backend_, clock, cfg).run(trace(600));
    ASSERT_EQ(result.report.worker_busy_seconds.size(), workers);
    const double sum = std::accumulate(
        result.report.worker_busy_seconds.begin(),
        result.report.worker_busy_seconds.end(), 0.0);
    EXPECT_DOUBLE_EQ(sum, result.report.busy_seconds);
  }
}

TEST_F(PipelineTest, AdmissionDepthSampledAtEveryDecision) {
  const VirtualClock clock;
  PipelineConfig cfg;
  cfg.scheme = Scheme::kConcatPure;
  const PipelineResult result =
      ServingPipeline(*das_, backend_, clock, cfg).run(trace(300));
  EXPECT_GT(result.report.admission_queue_depth.count(), 0u);
  // The trace driver pushes then drains inside one decision, so the queue
  // never exceeds its bound.
  EXPECT_LE(result.report.admission_queue_depth.max(),
            static_cast<double>(cfg.admission_capacity));
}

TEST_F(PipelineTest, MaxBatchesValveStopsAndFailsTheRest) {
  const VirtualClock clock;
  PipelineConfig cfg;
  cfg.scheme = Scheme::kConcatPure;
  cfg.max_batches = 3;
  const PipelineResult result =
      ServingPipeline(*das_, backend_, clock, cfg).run(trace(600));
  EXPECT_EQ(result.report.batches, 3u);
  EXPECT_EQ(result.report.completed + result.report.failed,
            result.report.arrived);
}

TEST_F(PipelineTest, SummaryPrintsStageAndBackpressureFields) {
  ServingReport report;
  report.scheduler = "das";
  report.scheme = "concat-pure";
  report.worker_busy_seconds = {1.0, 2.0};
  report.backpressure_events = 7;
  const std::string text = report.summary();
  EXPECT_NE(text.find("stage_seconds[admission="), std::string::npos);
  EXPECT_NE(text.find("batching="), std::string::npos);
  EXPECT_NE(text.find("execute="), std::string::npos);
  EXPECT_NE(text.find("worker_busy=["), std::string::npos);
  EXPECT_NE(text.find("backpressure=7"), std::string::npos);
}

TEST_F(PipelineTest, BackendOffloadFlags) {
  EXPECT_FALSE(backend_.offload());
  const auto model =
      std::make_shared<const Seq2SeqModel>(ModelConfig::test_scale());
  const AnalyticalCostModel clock(ModelConfig::test_scale(),
                                  HardwareProfile::v100_like());
  const EngineBackend engine(model, clock, InferenceOptions{});
  EXPECT_TRUE(engine.offload());
}

TEST_F(PipelineTest, ContinuousModeRejectsBackendThatCannotStep) {
  // Encoder-only classification has no decode loop to step, so the engine
  // backend's begin_stepped() returns nullptr; continuous mode must refuse
  // the first formed batch rather than serve it some other way.
  const ModelConfig model_cfg = ModelConfig::test_scale();
  const auto model = std::make_shared<const Seq2SeqModel>(model_cfg);
  const AnalyticalCostModel clock_model(model_cfg,
                                        HardwareProfile::v100_like());
  const ClassificationHead head(model_cfg.d_model, /*num_classes=*/4,
                                /*seed=*/3);
  const EngineBackend engine(model, clock_model, InferenceOptions{}, &head);

  SchedulerConfig sc;
  sc.batch_rows = 2;
  sc.row_capacity = 16;
  const auto das = make_scheduler("das", sc);
  WorkloadConfig w;
  w.rate = 20;
  w.duration = 0.5;
  w.min_len = 2;
  w.max_len = 8;
  w.mean_len = 4;
  w.len_variance = 2;
  w.deadline_slack_min = 1.0;
  w.deadline_slack_max = 2.0;
  w.with_tokens = true;
  w.vocab_size = model_cfg.vocab_size;
  const auto requests = generate_trace(w);
  ASSERT_FALSE(requests.empty());

  const VirtualClock clock;
  PipelineConfig cfg;
  cfg.continuous = true;
  const ServingPipeline pipeline(*das, engine, clock, cfg);
  // invalid_argument and CheckError are logic_errors too; pin the message
  // so a trace or config rejection cannot pass for the guard.
  try {
    (void)pipeline.run(requests);
    FAIL() << "continuous run on a non-stepping backend did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("begin_stepped"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace tcb
