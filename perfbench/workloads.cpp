#include "workloads.hpp"

#include "sched/factory.hpp"

namespace tcb::perfbench {
namespace {

/// Ids of round r start at r * kRoundIdStride.
constexpr RequestId kRoundIdStride = 10'000'000;

/// The paper's length distribution (§6.2.1): normal, mean 20, variance 20,
/// truncated to 3..100.
WorkloadConfig paper_lengths(double rate) {
  WorkloadConfig w;
  w.rate = rate;
  w.min_len = 3;
  w.max_len = 100;
  w.mean_len = 20.0;
  w.len_variance = 20.0;
  return w;
}

std::vector<WorkloadSpec> make_specs() {
  std::vector<WorkloadSpec> specs;

  {  // Real engine, seq2seq decode, continuous (iteration-level) batching.
    WorkloadSpec s;
    s.name = "decode-continuous";
    s.scheduler = "slotted-das";
    s.sched.batch_rows = 16;
    s.sched.row_capacity = 100;
    s.pipe.scheme = Scheme::kConcatSlotted;
    s.pipe.continuous = true;
    s.trace = paper_lengths(3000.0);
    s.trace.duration = 0.03;
    s.trace.with_tokens = true;
    s.trace.vocab_size = 8000;
    s.sim_rounds = 20;
    s.check_duration = 0.04;
    s.model.d_model = 128;
    s.model.d_ff = 512;
    s.model.n_heads = 8;
    s.model.n_encoder_layers = 3;
    s.model.n_decoder_layers = 3;
    s.model.vocab_size = 8000;
    s.opts.mode = AttentionMode::kSlotted;
    s.opts.max_decode_steps = 32;
    s.opts.cap_decode_at_source_length = true;
    s.opts.early_memory_cleaning = true;
    specs.push_back(std::move(s));
  }
  {  // Real engine, encoder-only classification, run-to-completion.
    WorkloadSpec s;
    s.name = "encode-classify";
    s.scheduler = "das";
    s.sched.batch_rows = 16;
    s.sched.row_capacity = 400;
    s.pipe.scheme = Scheme::kConcatPure;
    s.trace.rate = 2000.0;
    s.trace.min_len = 3;
    s.trace.max_len = 300;
    s.trace.mean_len = 20.0;
    s.trace.length_distribution = LengthDistribution::kBimodal;
    s.trace.bimodal_long_mean = 150.0;
    s.trace.bimodal_long_fraction = 0.3;
    s.trace.duration = 0.1;
    s.trace.with_tokens = true;
    s.trace.vocab_size = 8000;
    s.sim_rounds = 10;
    s.check_duration = 0.03;
    s.model.d_model = 512;
    s.model.d_ff = 2048;
    s.model.n_heads = 8;
    s.model.vocab_size = 8000;
    s.opts.mode = AttentionMode::kPureConcat;
    s.n_classes = 8;
    specs.push_back(std::move(s));
  }
  return specs;
}

const std::vector<WorkloadSpec>& specs() {
  static const std::vector<WorkloadSpec> all = make_specs();
  return all;
}

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& s : specs())
    if (s.name == name) return &s;
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const WorkloadSpec& s : specs()) names.push_back(s.name);
  return names;
}

Stack build_stack(const WorkloadSpec& spec) {
  Stack st;
  st.scheduler = make_scheduler(spec.scheduler, spec.sched);
  st.model = std::make_shared<const Seq2SeqModel>(spec.model);
  st.cost = std::make_unique<AnalyticalCostModel>(
      spec.model, HardwareProfile::v100_like());
  if (spec.n_classes > 0)
    st.head = std::make_unique<ClassificationHead>(
        spec.model.d_model, spec.n_classes, spec.model.seed + 1);
  st.backend = std::make_unique<EngineBackend>(st.model, *st.cost, spec.opts,
                                               st.head.get());
  return st;
}

std::vector<Request> make_trace(const WorkloadSpec& spec, std::uint64_t seed,
                                std::uint64_t round, double duration) {
  WorkloadConfig cfg = spec.trace;
  cfg.duration = duration;
  cfg.seed = seed * 1000003ULL + round;
  std::vector<Request> trace = generate_trace(cfg);
  for (Request& req : trace)
    req.id += static_cast<RequestId>(round) * kRoundIdStride;
  return trace;
}

}  // namespace tcb::perfbench
