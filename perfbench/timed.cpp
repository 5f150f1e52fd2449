#include "timed.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <unordered_set>
#include <utility>

namespace tcb::perfbench {
namespace {

void account_plan(Probe& probe, const BatchPlan& plan) {
  probe.plan_used_tokens += static_cast<double>(plan.used_tokens());
  probe.plan_grid_tokens += static_cast<double>(plan.rows.size()) *
                            static_cast<double>(plan.max_width());
}

/// Wraps the SteppedExecution a backend returned. Keeps the batch's active
/// requests so every step can stamp each one's emitted token: DecodeSession
/// emits one token per active track per step.
class TimedExec final : public SteppedExecution {
 public:
  TimedExec(std::unique_ptr<SteppedExecution> inner, const BatchWork& work,
            double entry, Probe& probe)
      : inner_(std::move(inner)), probe_(probe) {
    for (const Request& req : work.requests)
      active_.push_back(Track{req.id, entry, -1.0});
  }

  [[nodiscard]] double prologue_seconds() const override {
    return inner_->prologue_seconds();
  }
  [[nodiscard]] bool done() const override { return inner_->done(); }

  [[nodiscard]] StepResult step() override {
    const double t0 = now_s();
    StepResult res = inner_->step();
    const double t1 = now_s();
    probe_.step_ms.add((t1 - t0) * 1e3);
    probe_.tracks_per_step.add(static_cast<double>(active_.size()));
    if (probe_.log != nullptr) probe_.log->add("exec.step", t0, t1);

    for (Track& tr : active_) {
      if (tr.last_token < 0.0)
        probe_.ttft_ms.add((t1 - tr.entry) * 1e3);
      else
        probe_.itl_ms.add((t1 - tr.last_token) * 1e3);
      tr.last_token = t1;
    }
    probe_.emitted += active_.size();

    const std::unordered_set<RequestId> finished(res.finished.begin(),
                                                 res.finished.end());
    std::erase_if(active_, [&](const Track& tr) {
      if (!finished.contains(tr.id)) return false;
      probe_.latency_ms.add((t1 - tr.entry) * 1e3);
      if (probe_.log != nullptr)
        probe_.log->add("request", tr.entry, t1, tr.id);
      return true;
    });
    return res;
  }

  [[nodiscard]] double splice(Row row, Slot slot, Col begin, Index width,
                              std::vector<Request> reqs) override {
    std::vector<RequestId> ids;
    ids.reserve(reqs.size());
    for (const Request& req : reqs) ids.push_back(req.id);
    const double t0 = now_s();
    const double price = inner_->splice(row, slot, begin, width,
                                        std::move(reqs));
    const double t1 = now_s();
    probe_.splice_ms.add((t1 - t0) * 1e3);
    if (probe_.log != nullptr) probe_.log->add("exec.splice", t0, t1);
    for (const RequestId id : ids) active_.push_back(Track{id, t0, -1.0});
    return price;
  }

  [[nodiscard]] BatchExecution finish() override {
    const double t0 = now_s();
    BatchExecution out = inner_->finish();
    const double t1 = now_s();
    probe_.finish_s += t1 - t0;
    if (probe_.log != nullptr) probe_.log->add("exec.finish", t0, t1);
    return out;
  }

 private:
  struct Track {
    RequestId id = -1;
    double entry = 0.0;       ///< begin_stepped or splice call start
    double last_token = -1.0; ///< < 0 until the first emitted token
  };

  std::unique_ptr<SteppedExecution> inner_;
  Probe& probe_;
  std::vector<Track> active_;
};

}  // namespace

double now_s() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

Selection TimedScheduler::select(double now,
                                 const std::vector<Request>& pending) const {
  probe_.pending.add(static_cast<double>(pending.size()));
  const double t0 = now_s();
  Selection sel = inner_.select(now, pending);
  const double t1 = now_s();
  probe_.select_ms.add((t1 - t0) * 1e3);
  if (probe_.log != nullptr) probe_.log->add("sched.select", t0, t1);
  return sel;
}

std::vector<std::vector<Request>> TimedScheduler::select_for_slots(
    double now, const std::vector<Index>& slot_widths,
    std::vector<Request>& pending) const {
  probe_.pending.add(static_cast<double>(pending.size()));
  const double t0 = now_s();
  auto picks = inner_.select_for_slots(now, slot_widths, pending);
  const double t1 = now_s();
  probe_.slots_ms.add((t1 - t0) * 1e3);
  if (probe_.log != nullptr) probe_.log->add("sched.select_for_slots", t0, t1);
  return picks;
}

BatchExecution TimedBackend::execute(const BatchWork& work) const {
  const double t0 = now_s();
  BatchExecution out = inner_.execute(work);
  const double t1 = now_s();
  const double ms = (t1 - t0) * 1e3;
  probe_.encode_ms.add(ms);
  probe_.encode_tokens += static_cast<double>(work.plan.used_tokens());
  account_plan(probe_, work.plan);
  if (probe_.log != nullptr) probe_.log->add("backend.execute", t0, t1);
  // Run-to-completion emits every output of the batch when execute returns:
  // a request's first output, its last and its completion coincide.
  for (const Request& req : work.requests) {
    probe_.ttft_ms.add(ms);
    probe_.itl_ms.add(ms);
    probe_.latency_ms.add(ms);
    if (probe_.log != nullptr) probe_.log->add("request", t0, t1, req.id);
  }
  probe_.emitted += out.responses.size();
  return out;
}

std::unique_ptr<SteppedExecution> TimedBackend::begin_stepped(
    const BatchWork& work) const {
  const double t0 = now_s();
  std::unique_ptr<SteppedExecution> exec = inner_.begin_stepped(work);
  const double t1 = now_s();
  if (exec == nullptr) return nullptr;
  probe_.encode_ms.add((t1 - t0) * 1e3);
  probe_.encode_tokens += static_cast<double>(work.plan.used_tokens());
  account_plan(probe_, work.plan);
  if (probe_.log != nullptr) probe_.log->add("backend.begin_stepped", t0, t1);
  return std::make_unique<TimedExec>(std::move(exec), work, t0, probe_);
}

std::vector<SpanLog::SelfTime> SpanLog::self_times() const {
  std::vector<const Span*> layer;
  for (const Span& s : spans_)
    if (s.request < 0) layer.push_back(&s);
  // Parents before their children: earlier start first, longer first on ties.
  std::stable_sort(layer.begin(), layer.end(),
                   [](const Span* a, const Span* b) {
                     if (a->begin != b->begin) return a->begin < b->begin;
                     return a->end > b->end;
                   });
  std::map<std::string, SelfTime> by_name;
  std::vector<std::pair<const Span*, double>> stack;  // span, child coverage
  const auto close = [&](const Span* s, double covered) {
    SelfTime& t = by_name[s->name];
    t.name = s->name;
    t.count += 1;
    t.self_s += (s->end - s->begin) - covered;
  };
  for (const Span* s : layer) {
    while (!stack.empty() && stack.back().first->end <= s->begin) {
      close(stack.back().first, stack.back().second);
      stack.pop_back();
    }
    if (!stack.empty()) stack.back().second += s->end - s->begin;
    stack.emplace_back(s, 0.0);
  }
  for (auto it = stack.rbegin(); it != stack.rend(); ++it)
    close(it->first, it->second);
  std::vector<SelfTime> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

void SpanLog::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr)
    throw std::runtime_error("cannot write trace file " + path);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
               "\"args\":{\"name\":\"pipeline coordinator\"}}");
  for (const Span& s : spans_) {
    const double ts = s.begin * 1e6;
    const double dur = (s.end - s.begin) * 1e6;
    if (s.request < 0) {
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"layer\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}",
                   s.name, ts, dur);
    } else {
      const long long id = static_cast<long long>(s.request);
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"b\","
                   "\"pid\":1,\"tid\":2,\"id\":%lld,\"ts\":%.3f,"
                   "\"args\":{\"request\":%lld}}",
                   s.name, id, ts, id);
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"e\","
                   "\"pid\":1,\"tid\":2,\"id\":%lld,\"ts\":%.3f}",
                   s.name, id, ts + dur);
    }
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0)
    throw std::runtime_error("cannot finish trace file " + path);
}

}  // namespace tcb::perfbench
