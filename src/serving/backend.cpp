#include "serving/backend.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "batching/packed_batch.hpp"
#include "batching/slot_allocator.hpp"
#include "util/check.hpp"

namespace tcb {
namespace {

/// Responses and K/V accounting of one decoded batch.
BatchExecution decoded_batch(DecodeResult dec) {
  BatchExecution out;
  out.peak_kv_bytes = dec.peak_kv_bytes;
  out.early_freed_bytes = dec.early_freed_bytes;
  out.reclaimable_kv_bytes = dec.reclaimable_kv_bytes;
  for (auto& [id, tokens] : dec.outputs) {
    Response resp;
    resp.id = id;
    resp.tokens = std::move(tokens);
    out.responses.push_back(std::move(resp));
  }
  return out;
}

/// The virtual-clock half both stepped executions share: the prologue, one
/// StepTrackState per track — formation tracks from decode_track_states,
/// spliced ones at their span's context — and the spliced prefill staged
/// for the next fused iteration.
class PricedExecution : public SteppedExecution {
 public:
  [[nodiscard]] double prologue_seconds() const final { return prologue_; }

 protected:
  PricedExecution(const AnalyticalCostModel& clock, const BatchPlan& plan)
      : tracks_(clock.decode_track_states(plan)),
        clock_(clock),
        concat_(plan.scheme == Scheme::kConcatSlotted ||
                plan.scheme == Scheme::kConcatPure),
        max_width_(plan.max_width()),
        prologue_(clock.encode_seconds(plan) +
                  clock.hardware().batch_overhead) {}

  /// Prices one iteration over tracks_ as they stand, fusing in (and
  /// clearing) the staged prefill.
  [[nodiscard]] DecodeStepCost price_step() {
    const DecodeStepCost cost = clock_.decode_step_cost(tracks_, staged_);
    staged_ = SplicePrefill{};
    return cost;
  }

  /// Adds one track per spliced request over a span of `width` columns and
  /// stages the cohort's prefill bill for the next step (per-cohort
  /// quadratic attention, so the flops accumulate per call rather than
  /// merging token counts).
  void price_splice(Index width, const std::vector<Request>& reqs) {
    Index total_len = 0;
    for (const auto& req : reqs) {
      total_len += req.length;
      StepTrackState st;
      st.decode_len = concat_ ? req.length : max_width_;
      st.context = concat_ ? static_cast<double>(width)
                           : static_cast<double>(max_width_);
      tracks_.push_back(st);
    }
    const SplicePrefill bill = clock_.splice_prefill(total_len);
    staged_.tokens += bill.tokens;
    staged_.linear_flops += bill.linear_flops;
    staged_.attention_flops += bill.attention_flops;
  }

  /// Per-track states, index-aligned with the execution's tracks.
  std::vector<StepTrackState> tracks_;

 private:
  const AnalyticalCostModel& clock_;
  bool concat_ = false;
  Index max_width_ = 0;
  double prologue_ = 0;
  SplicePrefill staged_;  ///< spliced prefill awaiting the next fused step
};

/// Pure-simulation stepped execution: the analytical twin of the engine's
/// DecodeSession. Tracks advance under the model's translation-style decode
/// lengths; groups come from the same SlotGroupTable rule as the decoder's
/// (row under concat, (row, slot) under slotted), so slot releases fire at
/// the same modeled moments the engine's would.
class AnalyticalSteppedExecution final : public PricedExecution {
 public:
  AnalyticalSteppedExecution(const AnalyticalCostModel& clock,
                             const BatchWork& work)
      : PricedExecution(clock, work.plan),
        groups_(work.plan, work.plan.scheme == Scheme::kConcatSlotted &&
                               work.plan.slot_len > 0) {}

  [[nodiscard]] bool done() const override {
    return std::all_of(tracks_.begin(), tracks_.end(),
                       [](const StepTrackState& t) { return t.finished(); });
  }

  [[nodiscard]] StepResult step() override {
    StepResult res;
    const DecodeStepCost cost = price_step();
    TCB_CHECK(cost.active > 0.0,
              "AnalyticalSteppedExecution::step called when done");
    res.seconds = cost.seconds;
    std::vector<std::size_t> retired;
    for (std::size_t i = 0; i < tracks_.size(); ++i) {
      if (tracks_[i].finished()) continue;
      tracks_[i].steps_done += 1;
      if (!tracks_[i].finished()) continue;
      retired.push_back(i);
      res.finished.push_back(groups_.request(i));
    }
    for (const std::size_t g : groups_.retire(retired))
      res.released.push_back(groups_.release(g));
    return res;
  }

  [[nodiscard]] double splice(Row row, Slot slot, Col begin, Index width,
                              std::vector<Request> reqs) override {
    groups_.splice(SlotSpan{row, slot, begin, width}, reqs);
    price_splice(width, reqs);
    return 0.0;
  }

  [[nodiscard]] BatchExecution finish() override { return {}; }

 private:
  SlotGroupTable groups_;
};

/// Real stepped execution: a DecodeSession driven one iteration at a time,
/// each iteration priced from the session's *actual* active tracks with the
/// analytical clock — the engine and the virtual clock agree on exactly
/// which tracks decoded.
class EngineSteppedExecution final : public PricedExecution {
 public:
  EngineSteppedExecution(std::shared_ptr<const Seq2SeqModel> model,
                         const AnalyticalCostModel& clock,
                         const InferenceOptions& opts, const BatchWork& work)
      : PricedExecution(clock, work.plan),
        model_(std::move(model)),
        session_(*model_,
                 model_->encode(pack_batch(work.plan, work.requests), opts),
                 decode_options(opts)) {}

  [[nodiscard]] bool done() const override { return session_.done(); }

  [[nodiscard]] StepResult step() override {
    // Price from the session's live activity *before* the iteration runs:
    // a track at position p pays self-attention over min(p + 1, context).
    const auto& tracks = session_.tracks();
    for (std::size_t i = 0; i < tracks.size(); ++i) {
      tracks_[i].steps_done = static_cast<Index>(tracks[i].emitted.size());
      tracks_[i].decode_len = tracks[i].finished ? tracks_[i].steps_done
                                                 : tracks_[i].steps_done + 1;
    }
    StepResult res;
    res.seconds = price_step().seconds;
    DecodeStepOutcome outcome = session_.step();
    res.finished = std::move(outcome.finished);
    res.released = std::move(outcome.released);
    return res;
  }

  [[nodiscard]] double splice(Row row, Slot slot, Col begin, Index width,
                              std::vector<Request> reqs) override {
    session_.splice(row, slot, begin, width, reqs);
    // The engine already ran the real mini-encode above; only its pricing
    // is staged for the next fused iteration.
    price_splice(width, reqs);
    return 0.0;
  }

  [[nodiscard]] BatchExecution finish() override {
    return decoded_batch(session_.take_result());
  }

 private:
  std::shared_ptr<const Seq2SeqModel> model_;
  DecodeSession session_;
};

}  // namespace

std::unique_ptr<SteppedExecution> AnalyticalBackend::begin_stepped(
    const BatchWork& work) const {
  const auto* analytical = dynamic_cast<const AnalyticalCostModel*>(&cost_);
  if (analytical == nullptr) return nullptr;
  return std::make_unique<AnalyticalSteppedExecution>(*analytical, work);
}

EngineBackend::EngineBackend(std::shared_ptr<const Seq2SeqModel> model,
                             const AnalyticalCostModel& clock,
                             InferenceOptions opts,
                             const ClassificationHead* head)
    : model_(std::move(model)), clock_(clock), opts_(opts), head_(head) {
  TCB_CHECK(model_ != nullptr, "EngineBackend: model must not be null");
}

double EngineBackend::batch_seconds(const BatchPlan& plan) const {
  // Encoder-only serving (classification) skips the auto-regressive decode,
  // so its clock advances by encoder + overhead only (paper §5.2).
  const CostBreakdown cost = clock_.breakdown(plan);
  const double seconds = head_ != nullptr
                             ? cost.encoder_seconds + cost.overhead_seconds
                             : cost.total_seconds();
  TCB_CHECK(seconds > 0.0, "EngineBackend: batch clock must advance");
  return seconds;
}

BatchExecution EngineBackend::execute(const BatchWork& work) const {
  const EncoderMemory memory =
      model_->encode(pack_batch(work.plan, work.requests), opts_);
  if (head_ == nullptr)
    return decoded_batch(
        greedy_decode(*model_, memory, decode_options(opts_)));
  BatchExecution out;
  for (const auto& [id, label] : head_->classify(memory)) {
    Response resp;
    resp.id = id;
    resp.label = label;
    out.responses.push_back(std::move(resp));
  }
  return out;
}

std::unique_ptr<SteppedExecution> EngineBackend::begin_stepped(
    const BatchWork& work) const {
  if (head_ != nullptr) return nullptr;  // encoder-only: nothing to step
  return std::make_unique<EngineSteppedExecution>(model_, clock_, opts_,
                                                  work);
}

void EngineBackend::validate_trace(const std::vector<Request>& trace) const {
  for (const auto& req : trace)
    if (static_cast<Index>(req.tokens.size()) != req.length)
      throw std::invalid_argument(
          "EngineBackend: request " + std::to_string(req.id) +
          " has no token payload (generate the trace with with_tokens=true)");
}

}  // namespace tcb
