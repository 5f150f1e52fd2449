// Refactor-equivalence proof for the staged ServingPipeline (DESIGN.md §10).
//
// The pre-refactor serving loops — the discrete-event ServingSimulator body
// and TcbSystem's engine loop — are frozen below, verbatim, as reference
// implementations. The pipeline must reproduce them *exactly* (EXPECT_EQ /
// EXPECT_DOUBLE_EQ, not tolerances): both sides run the same arithmetic in
// the same order, so any drift is a real behavior change, not rounding.
//
// Coverage: the fig09/fig10 operating points (paper workload, DAS,
// batch_rows=64, L=100, rates across and past saturation, all three
// simulated schemes) plus the slotted full system; for the engine path,
// token-identical outputs and identical simulated times on the test-scale
// model, including classification serving.
//
// A second oracle freezes the two drivers the pipeline had before they were
// unified — ServingPipeline::run (run-to-completion) and run_continuous —
// and asserts the one remaining driver reproduces every ServingReport field,
// every Samples element in recorded order, the responses and the KV figures,
// across schedulers, schemes, rates, worker counts, both modes, admission
// bounds and the max_batches valve.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "batching/concat_batcher.hpp"
#include "batching/factory.hpp"
#include "batching/naive_batcher.hpp"
#include "batching/packed_batch.hpp"
#include "batching/slot_allocator.hpp"
#include "batching/slotted_batcher.hpp"
#include "batching/turbo_batcher.hpp"
#include "core/tcb.hpp"
#include "sched/factory.hpp"
#include "serving/request_queue.hpp"
#include "serving/simulator.hpp"
#include "util/check.hpp"
#include "workload/trace.hpp"

namespace tcb {
namespace {

// ---------------------------------------------------------------------------
// Frozen pre-refactor ServingSimulator::run (single worker, analytical cost;
// wall-clock scheduler timing dropped — it never influenced decisions).
// ---------------------------------------------------------------------------
struct ReferenceReport {
  std::size_t completed = 0;
  std::size_t failed = 0;
  double total_utility = 0.0;
  double throughput = 0.0;
  double makespan = 0.0;
  std::size_t batches = 0;
  double busy_seconds = 0.0;
};

ReferenceReport reference_simulator_run(const Scheduler& scheduler,
                                        const CostModel& cost, Scheme scheme,
                                        Index fixed_slot_len,
                                        const std::vector<Request>& trace) {
  const SchedulerConfig& sched_cfg = scheduler.config();
  ReferenceReport report;

  const NaiveBatcher naive;
  const TurboBatcher turbo;
  const ConcatBatcher concat;

  double trace_end = 0.0;
  for (const auto& req : trace) trace_end = std::max(trace_end, req.arrival);

  double now = 0.0;
  std::size_t next_arrival = 0;
  std::vector<Request> pending;

  while (true) {
    while (next_arrival < trace.size() && trace[next_arrival].arrival <= now) {
      pending.push_back(trace[next_arrival]);
      ++next_arrival;
    }
    report.failed +=
        evict_unschedulable(now, sched_cfg.row_capacity, pending).size();

    if (pending.empty()) {
      if (next_arrival >= trace.size()) break;
      now = trace[next_arrival].arrival;
      continue;
    }

    const Selection sel = scheduler.select(now, pending);

    BatchBuildResult built;
    switch (scheme) {
      case Scheme::kNaive:
        built = naive.build(sel.ordered, Row{sched_cfg.batch_rows},
                            Col{sched_cfg.row_capacity});
        break;
      case Scheme::kTurbo:
        built = turbo.build(sel.ordered, Row{sched_cfg.batch_rows},
                            Col{sched_cfg.row_capacity});
        break;
      case Scheme::kConcatPure:
        built = concat.build(sel.ordered, Row{sched_cfg.batch_rows},
                             Col{sched_cfg.row_capacity});
        break;
      case Scheme::kConcatSlotted: {
        Index z = sel.slot_len > 0 ? sel.slot_len : fixed_slot_len;
        if (z <= 0) z = sched_cfg.row_capacity;
        const SlottedConcatBatcher slotted(z);
        built = slotted.build(sel.ordered, Row{sched_cfg.batch_rows},
                              Col{sched_cfg.row_capacity});
        break;
      }
    }

    if (built.plan.empty()) {
      if (next_arrival < trace.size()) {
        now = std::max(now, trace[next_arrival].arrival);
        continue;
      }
      report.failed += pending.size();
      pending.clear();
      break;
    }

    const double batch_time = cost.batch_seconds(built.plan);
    if (!(batch_time > 0.0))
      throw std::logic_error("reference: non-positive batch time");
    const double completion = now + batch_time;

    std::unordered_set<RequestId> served;
    for (const auto id : built.plan.request_ids()) served.insert(id);
    for (const auto& req : pending) {
      if (!served.contains(req.id)) continue;
      report.total_utility += req.utility();
      ++report.completed;
    }
    pending.erase(std::remove_if(pending.begin(), pending.end(),
                                 [&](const Request& r) {
                                   return served.contains(r.id);
                                 }),
                  pending.end());

    ++report.batches;
    report.busy_seconds += batch_time;
    now = completion;
    report.makespan = std::max(report.makespan, completion);
  }

  const double horizon = std::max(report.makespan, trace_end);
  report.throughput =
      horizon > 0.0 ? static_cast<double>(report.completed) / horizon : 0.0;
  return report;
}

// ---------------------------------------------------------------------------
// Frozen pre-refactor TcbSystem engine loop (seq2seq and encoder-only).
// ---------------------------------------------------------------------------
ServeResult reference_serve(const TcbConfig& cfg, const Scheduler& scheduler,
                            const Seq2SeqModel& model,
                            const AnalyticalCostModel& clock,
                            const std::vector<Request>& trace,
                            const ClassificationHead* head) {
  InferenceOptions opts;
  opts.mode = cfg.scheme == Scheme::kConcatSlotted ? AttentionMode::kSlotted
                                                   : AttentionMode::kPureConcat;
  if (head == nullptr) {
    opts.max_decode_steps = cfg.max_decode_steps;
    opts.early_memory_cleaning = cfg.early_memory_cleaning;
  }

  const NaiveBatcher naive;
  const TurboBatcher turbo;
  const ConcatBatcher concat;

  ServeResult result;
  double now = 0.0;
  std::size_t next_arrival = 0;
  std::vector<Request> pending;

  while (true) {
    while (next_arrival < trace.size() && trace[next_arrival].arrival <= now) {
      pending.push_back(trace[next_arrival]);
      ++next_arrival;
    }
    result.failed +=
        evict_unschedulable(now, cfg.sched.row_capacity, pending).size();

    if (pending.empty()) {
      if (next_arrival >= trace.size()) break;
      now = trace[next_arrival].arrival;
      continue;
    }

    const Selection sel = scheduler.select(now, pending);

    BatchBuildResult built;
    switch (cfg.scheme) {
      case Scheme::kNaive:
        built = naive.build(sel.ordered, Row{cfg.sched.batch_rows},
                            Col{cfg.sched.row_capacity});
        break;
      case Scheme::kTurbo:
        built = turbo.build(sel.ordered, Row{cfg.sched.batch_rows},
                            Col{cfg.sched.row_capacity});
        break;
      case Scheme::kConcatPure:
        built = concat.build(sel.ordered, Row{cfg.sched.batch_rows},
                             Col{cfg.sched.row_capacity});
        break;
      case Scheme::kConcatSlotted: {
        const Index z =
            sel.slot_len > 0 ? sel.slot_len : cfg.sched.row_capacity;
        const SlottedConcatBatcher slotted(z);
        built = slotted.build(sel.ordered, Row{cfg.sched.batch_rows},
                              Col{cfg.sched.row_capacity});
        break;
      }
    }

    if (built.plan.empty()) {
      if (next_arrival < trace.size()) {
        now = std::max(now, trace[next_arrival].arrival);
        continue;
      }
      result.failed += pending.size();
      break;
    }

    std::unordered_map<RequestId, const Request*> by_id;
    for (const auto& req : pending) by_id.emplace(req.id, &req);
    const PackedBatch packed = pack_batch(built.plan, by_id);

    std::vector<Response> responses;
    if (head != nullptr) {
      const EncoderMemory memory = model.encode(packed, opts);
      for (const auto& [id, label] : head->classify(memory)) {
        Response resp;
        resp.id = id;
        resp.label = label;
        responses.push_back(std::move(resp));
      }
    } else {
      InferenceResult inf = model.infer(packed, opts);
      result.peak_kv_bytes = std::max(result.peak_kv_bytes, inf.peak_kv_bytes);
      result.early_freed_bytes += inf.early_freed_bytes;
      for (auto& [id, tokens] : inf.outputs) {
        Response resp;
        resp.id = id;
        resp.tokens = std::move(tokens);
        responses.push_back(std::move(resp));
      }
    }

    const CostBreakdown price = clock.breakdown(built.plan);
    const double batch_time = head != nullptr
                                  ? price.encoder_seconds + price.overhead_seconds
                                  : price.total_seconds();
    const double completion = now + batch_time;

    std::unordered_map<RequestId, double> scheduled;
    for (const auto id : built.plan.request_ids()) scheduled.emplace(id, now);
    for (auto& resp : responses) {
      resp.scheduled_at = scheduled.at(resp.id);
      resp.completed_at = completion;
      result.responses.push_back(std::move(resp));
    }
    for (const auto& req : pending)
      if (scheduled.contains(req.id)) result.total_utility += req.utility();
    pending.erase(std::remove_if(pending.begin(), pending.end(),
                                 [&](const Request& r) {
                                   return scheduled.contains(r.id);
                                 }),
                  pending.end());

    ++result.batches;
    now = completion;
    result.makespan = now;
  }

  std::sort(result.responses.begin(), result.responses.end(),
            [](const Response& a, const Response& b) { return a.id < b.id; });
  return result;
}

// ---------------------------------------------------------------------------
// Frozen pre-unification drivers: ServingPipeline::run and
// ServingPipeline::run_continuous, verbatim except that run-to-completion
// executes every batch inline instead of offloading it to the thread pool
// (the outputs are the same), and the three splice knobs that were removed
// from PipelineConfig live on FrozenConfig at their former defaults.
// ---------------------------------------------------------------------------
struct FrozenConfig : PipelineConfig {
  double splice_min_fill = 0.6;
  std::size_t splice_horizon_steps = 0;
  double splice_misfit_drain = 0.75;
};

class FrozenPipeline {
 public:
  FrozenPipeline(const Scheduler& scheduler, const ExecutionBackend& backend,
                 const Clock& clock, FrozenConfig cfg)
      : scheduler_(scheduler), backend_(backend), clock_(clock), cfg_(cfg) {}

  [[nodiscard]] PipelineResult run(const std::vector<Request>& trace) const;

 private:
  [[nodiscard]] PipelineResult run_continuous(
      const std::vector<Request>& trace) const;

  const Scheduler& scheduler_;
  const ExecutionBackend& backend_;
  const Clock& clock_;
  FrozenConfig cfg_;
};

void drain_admission(RequestQueue& queue, std::vector<Request>& pending) {
  std::vector<Request> drained = queue.drain_by_deadline();
  if (drained.empty()) return;
  for (auto& req : drained) pending.push_back(std::move(req));
  std::sort(pending.begin(), pending.end(),
            [](const Request& a, const Request& b) {
              if (a.arrival != b.arrival) return a.arrival < b.arrival;
              return a.id < b.id;
            });
}

PipelineResult FrozenPipeline::run(const std::vector<Request>& trace) const {
  if (cfg_.continuous) return run_continuous(trace);
  backend_.validate_trace(trace);

  const SchedulerConfig& sched_cfg = scheduler_.config();
  PipelineResult result;
  ServingReport& report = result.report;
  report.scheduler = scheduler_.name();
  report.scheme = scheme_name(cfg_.scheme);
  report.arrived = trace.size();
  report.worker_busy_seconds.assign(cfg_.workers, 0.0);

  double trace_end = 0.0;
  for (const auto& req : trace) trace_end = std::max(trace_end, req.arrival);

  // Stage 1 state: the bounded admission queue. The driver below is
  // single-threaded (arrivals come from the trace), so a full queue drains
  // inline; a concurrent ingest frontend would block in push() instead.
  RequestQueue admission(cfg_.admission_capacity);

  // Each accelerator is represented by the time it next becomes idle; idle
  // workers pull the scheduler's next selection in turn.
  std::vector<double> worker_free(cfg_.workers, 0.0);
  std::size_t next_arrival = 0;
  std::vector<Request> pending;  ///< drained, unscheduled; (arrival, id) order
  /// id -> (scheduled_at, completed_at): stamps responses exactly once in
  /// stage 6, and double-checks the backend never invents request ids.
  std::unordered_map<RequestId, std::pair<double, double>> service_times;
  std::vector<BatchExecution> inline_executions;
  bool stop = false;

  while (!stop) {
    // The earliest-idle worker makes the next scheduling decision.
    const auto idle_it =
        std::min_element(worker_free.begin(), worker_free.end());
    const std::size_t worker =
        static_cast<std::size_t>(idle_it - worker_free.begin());
    const double now = *idle_it;

    // ---- Stage 1: admission -------------------------------------------
    const double admission_t0 = clock_.now();
    while (next_arrival < trace.size() &&
           trace[next_arrival].arrival <= now) {
      if (!admission.try_push(trace[next_arrival])) {
        // Bounded-queue backpressure: the arrival waits at the edge until a
        // drain frees the queue.
        ++report.backpressure_events;
        drain_admission(admission, pending);
        TCB_CHECK(admission.try_push(trace[next_arrival]),
                  "ServingPipeline: admission queue full after drain");
      }
      ++next_arrival;
    }
    report.admission_queue_depth.add(static_cast<double>(admission.size()));
    drain_admission(admission, pending);

    // Fail requests that expired in the queue or can never fit a row.
    report.failed +=
        evict_unschedulable(now, sched_cfg.row_capacity, pending).size();
    report.admission_seconds += clock_.now() - admission_t0;

    if (pending.empty()) {
      if (next_arrival >= trace.size()) break;  // drained
      *idle_it = trace[next_arrival].arrival;   // idle until the next arrival
      continue;
    }
    report.queue_depth.add(static_cast<double>(pending.size()));

    // ---- Stage 2: scheduler selection ---------------------------------
    // Timed with the pipeline Clock (this is what Fig. 16 reports); the
    // reading never influences a decision.
    const double select_t0 = clock_.now();
    Selection sel = scheduler_.select(now, pending);
    report.scheduler_seconds += clock_.now() - select_t0;

    // ---- Stage 3: batch formation -------------------------------------
    const double batch_t0 = clock_.now();
    const Index slot_len =
        sel.slot_len > 0 ? sel.slot_len : cfg_.fixed_slot_len;
    BatchBuildResult built = build_with_scheme(
        cfg_.scheme, std::move(sel.ordered), Row{sched_cfg.batch_rows},
        Col{sched_cfg.row_capacity}, slot_len);
    report.batching_seconds += clock_.now() - batch_t0;

    if (built.plan.empty()) {
      // The selection could not be placed at all (e.g. every candidate is
      // longer than the slot). Avoid a zero-progress spin: jump to the next
      // arrival if any, otherwise fail what is left.
      if (next_arrival < trace.size()) {
        *idle_it = std::max(now, trace[next_arrival].arrival);
        continue;
      }
      report.failed += pending.size();
      pending.clear();
      break;
    }

    // ---- Stage 4: pricing ---------------------------------------------
    const double batch_time = backend_.batch_seconds(built.plan);
    if (!(batch_time > 0.0))
      throw std::logic_error("ServingPipeline: non-positive batch time");
    const double completion = now + batch_time;

    // Completion accounting happens at dispatch: simulated times are fully
    // determined here, whether or not execution is deferred to a worker.
    std::unordered_set<RequestId> served;
    for (const auto id : built.plan.request_ids()) served.insert(id);
    BatchWork work;
    work.plan = std::move(built.plan);
    work.requests.reserve(served.size());
    double used_tokens = 0.0;
    for (const auto& req : pending) {
      if (!served.contains(req.id)) continue;
      report.total_utility += req.utility();
      report.latency.add(completion - req.arrival);
      used_tokens += static_cast<double>(req.length);
      ++report.completed;
      service_times.emplace(req.id, std::make_pair(now, completion));
      work.requests.push_back(req);
    }
    pending.erase(std::remove_if(pending.begin(), pending.end(),
                                 [&](const Request& r) {
                                   return served.contains(r.id);
                                 }),
                  pending.end());

    ++report.batches;
    report.busy_seconds += batch_time;
    report.worker_busy_seconds[worker] += batch_time;
    report.batch_seconds.add(batch_time);
    report.batch_requests.add(static_cast<double>(served.size()));
    report.batch_occupancy.add(
        used_tokens / static_cast<double>(sched_cfg.batch_rows *
                                          sched_cfg.row_capacity));
    *idle_it = completion;
    report.makespan = std::max(report.makespan, completion);

    // ---- Stage 5: execution -------------------------------------------
    const double exec_t0 = clock_.now();
    inline_executions.push_back(backend_.execute(work));
    report.execute_seconds += clock_.now() - exec_t0;

    if (cfg_.max_batches != 0 && report.batches >= cfg_.max_batches) {
      report.failed += pending.size() + (trace.size() - next_arrival);
      stop = true;
    }
  }

  // ---- Stage 6: completion / accounting -------------------------------
  for (auto& exec : inline_executions) {
    result.peak_kv_bytes = std::max(result.peak_kv_bytes, exec.peak_kv_bytes);
    result.early_freed_bytes += exec.early_freed_bytes;
    result.reclaimable_kv_bytes += exec.reclaimable_kv_bytes;
    for (auto& resp : exec.responses) {
      const auto& times = service_times.at(resp.id);  // throws on unknown id
      resp.scheduled_at = times.first;
      resp.completed_at = times.second;
      result.responses.push_back(std::move(resp));
    }
  }
  std::sort(result.responses.begin(), result.responses.end(),
            [](const Response& a, const Response& b) { return a.id < b.id; });

  const double horizon = std::max(report.makespan, trace_end);
  report.throughput =
      horizon > 0.0 ? static_cast<double>(report.completed) / horizon : 0.0;
  return result;
}

PipelineResult FrozenPipeline::run_continuous(
    const std::vector<Request>& trace) const {
  backend_.validate_trace(trace);

  const SchedulerConfig& sched_cfg = scheduler_.config();
  PipelineResult result;
  ServingReport& report = result.report;
  report.scheduler = scheduler_.name();
  report.scheme = scheme_name(cfg_.scheme);
  report.arrived = trace.size();
  report.worker_busy_seconds.assign(cfg_.workers, 0.0);

  double trace_end = 0.0;
  for (const auto& req : trace) trace_end = std::max(trace_end, req.arrival);

  RequestQueue admission(cfg_.admission_capacity);

  /// One batch mid-decode on a worker: its stepped execution, the slot grid
  /// tracking which spans are live, and running per-batch accounting.
  struct LiveBatch {
    std::unique_ptr<SteppedExecution> exec;
    std::unique_ptr<SlotAllocator> slots;
    double seconds = 0.0;       ///< accumulated simulated batch time
    std::size_t requests = 0;   ///< placed at formation + spliced
    std::size_t steps = 0;      ///< decode iterations run so far
    /// Whether the plan filled enough of the grid to be worth keeping alive
    /// via splices (PipelineConfig::splice_min_fill); under-filled batches
    /// drain and retire instead.
    bool splice_eligible = false;
  };
  std::vector<LiveBatch> live(cfg_.workers);

  // A worker's entry is the simulated time of its next event: the end of its
  // current decode iteration when a batch is live, the moment it can form a
  // batch when idle, kIdleForever when it has nothing left to do.
  constexpr double kIdleForever = std::numeric_limits<double>::infinity();
  std::vector<double> worker_free(cfg_.workers, 0.0);
  std::size_t next_arrival = 0;
  std::vector<Request> pending;  ///< drained, unscheduled; (arrival, id) order
  std::unordered_map<RequestId, std::pair<double, double>> service_times;
  std::unordered_map<RequestId, double> arrival_of;  ///< for latency at finish
  std::vector<BatchExecution> executions;
  bool stop = false;

  // Stage 1 (admission), shared by batch formation and splicing: pull every
  // arrival up to `now` through the bounded queue, restore canonical pending
  // order, evict what expired or can never fit.
  const auto admit_until = [&](double now) {
    const double admission_t0 = clock_.now();
    while (next_arrival < trace.size() &&
           trace[next_arrival].arrival <= now) {
      if (!admission.try_push(trace[next_arrival])) {
        ++report.backpressure_events;
        drain_admission(admission, pending);
        TCB_CHECK(admission.try_push(trace[next_arrival]),
                  "ServingPipeline: admission queue full after drain");
      }
      ++next_arrival;
    }
    report.admission_queue_depth.add(static_cast<double>(admission.size()));
    drain_admission(admission, pending);
    report.failed +=
        evict_unschedulable(now, sched_cfg.row_capacity, pending).size();
    report.admission_seconds += clock_.now() - admission_t0;
  };

  // A request is accounted (utility, completed, service start) the moment it
  // enters a batch — at formation or at splice; its completion time is
  // stamped later, at the iteration that emits its final token.
  const auto account_admitted = [&](const Request& req, double at) {
    report.total_utility += req.utility();
    ++report.completed;
    service_times.emplace(req.id, std::make_pair(at, 0.0));
    arrival_of.emplace(req.id, req.arrival);
  };

  while (true) {
    const auto idle_it =
        std::min_element(worker_free.begin(), worker_free.end());
    const std::size_t worker =
        static_cast<std::size_t>(idle_it - worker_free.begin());
    const double now = *idle_it;
    if (now == kIdleForever) break;  // every worker is out of work
    LiveBatch& batch = live[worker];

    if (batch.exec != nullptr) {
      // ---- Step event: the worker's batch finished an iteration ---------
      if (batch.exec->done()) {
        executions.push_back(batch.exec->finish());
        report.batch_seconds.add(batch.seconds);
        report.batch_requests.add(static_cast<double>(batch.requests));
        batch = LiveBatch{};  // idle again at `now`; forms next batch
        continue;
      }
      const double exec_t0 = clock_.now();
      const SteppedExecution::StepResult step = batch.exec->step();
      report.execute_seconds += clock_.now() - exec_t0;
      batch.steps += 1;
      const double step_end = now + step.seconds;
      for (const RequestId id : step.finished) {
        service_times.at(id).second = step_end;
        report.latency.add(step_end - arrival_of.at(id));
      }
      for (const SlotRelease& rel : step.released) {
        batch.slots->release(rel.row, rel.slot);
        ++report.slot_releases;
      }

      // ---- Mid-batch splicing (DESIGN.md §15): re-run DAS over the vacant
      // spans and admit what fits, paying each span's mini-encode.
      double completion = step_end;
      const bool within_horizon = cfg_.splice_horizon_steps == 0 ||
                                  batch.steps < cfg_.splice_horizon_steps;
      const std::vector<SlotSpan> vacant = batch.slots->vacant();
      if (!stop && batch.splice_eligible && within_horizon && !vacant.empty()) {
        admit_until(step_end);
        // Admission post-condition (evict_unschedulable's sanitizer),
        // re-asserted on the continuous path before any batch-geometry
        // arithmetic consumes the surviving requests.
        for (const Request& req : pending)
          TCB_DCHECK(req.length >= 1 &&
                         req.length <= sched_cfg.row_capacity &&
                         req.deadline >= step_end,
                     "run_continuous: unvalidated request after admission");
        // Geometry-mismatch drain: when most of what is waiting cannot fit
        // this batch's widest span, stop splicing and let it retire so the
        // next formation re-adapts the slot geometry to the arrivals.
        if (cfg_.splice_misfit_drain > 0.0 && pending.size() >= 8) {
          const Index widest = batch.slots->max_span_width();
          std::size_t misfits = 0;
          for (const auto& req : pending)
            if (req.length > widest) ++misfits;
          if (static_cast<double>(misfits) >=
              cfg_.splice_misfit_drain * static_cast<double>(pending.size()))
            batch.splice_eligible = false;
        }
        if (batch.splice_eligible && !pending.empty()) {
          std::vector<Index> widths;
          widths.reserve(vacant.size());
          for (const auto& span : vacant) widths.push_back(span.width);
          const double select_t0 = clock_.now();
          std::vector<std::vector<Request>> picks =
              scheduler_.select_for_slots(step_end, widths, pending);
          report.scheduler_seconds += clock_.now() - select_t0;
          // select_for_slots leaves survivor order unspecified; restore the
          // canonical (arrival, id) order the next decision depends on.
          std::sort(pending.begin(), pending.end(),
                    [](const Request& a, const Request& b) {
                      if (a.arrival != b.arrival) return a.arrival < b.arrival;
                      return a.id < b.id;
                    });
          for (std::size_t s = 0; s < picks.size(); ++s) {
            if (picks[s].empty()) continue;
            const SlotSpan& span = vacant[s];
            TCB_CHECK(batch.slots->acquire(span.row, span.slot),
                      "ServingPipeline: spliced into an occupied slot");
            for (const auto& req : picks[s]) {
              account_admitted(req, step_end);
              ++report.spliced_requests;
              ++batch.requests;
            }
            const double splice_t0 = clock_.now();
            completion += batch.exec->splice(span.row, span.slot, span.begin,
                                             span.width, std::move(picks[s]));
            report.execute_seconds += clock_.now() - splice_t0;
          }
        }
      }
      report.slot_occupancy.add(batch.slots->occupied_fraction());

      const double delta = completion - now;
      batch.seconds += delta;
      report.busy_seconds += delta;
      report.worker_busy_seconds[worker] += delta;
      *idle_it = completion;
      report.makespan = std::max(report.makespan, completion);
      continue;
    }

    // ---- Idle worker: form a new batch (stages 1-3, as run-to-completion).
    if (stop) {
      *idle_it = kIdleForever;
      continue;
    }
    admit_until(now);
    if (pending.empty()) {
      *idle_it = next_arrival < trace.size()
                     ? std::max(now, trace[next_arrival].arrival)
                     : kIdleForever;
      continue;
    }
    report.queue_depth.add(static_cast<double>(pending.size()));

    const double select_t0 = clock_.now();
    Selection sel = scheduler_.select(now, pending);
    report.scheduler_seconds += clock_.now() - select_t0;

    const double batch_t0 = clock_.now();
    const Index slot_len =
        sel.slot_len > 0 ? sel.slot_len : cfg_.fixed_slot_len;
    BatchBuildResult built = build_with_scheme(
        cfg_.scheme, std::move(sel.ordered), Row{sched_cfg.batch_rows},
        Col{sched_cfg.row_capacity}, slot_len);
    report.batching_seconds += clock_.now() - batch_t0;

    if (built.plan.empty()) {
      if (next_arrival < trace.size()) {
        *idle_it = std::max(now, trace[next_arrival].arrival);
        continue;
      }
      report.failed += pending.size();
      pending.clear();
      *idle_it = kIdleForever;
      continue;
    }

    std::unordered_set<RequestId> served;
    for (const auto id : built.plan.request_ids()) served.insert(id);
    BatchWork work;
    work.plan = std::move(built.plan);
    work.requests.reserve(served.size());
    double used_tokens = 0.0;
    for (const auto& req : pending) {
      if (!served.contains(req.id)) continue;
      account_admitted(req, now);
      used_tokens += static_cast<double>(req.length);
      work.requests.push_back(req);
    }
    pending.erase(std::remove_if(pending.begin(), pending.end(),
                                 [&](const Request& r) {
                                   return served.contains(r.id);
                                 }),
                  pending.end());

    const double exec_t0 = clock_.now();
    std::unique_ptr<SteppedExecution> exec = backend_.begin_stepped(work);
    if (exec == nullptr)
      throw std::logic_error(
          "ServingPipeline: backend cannot step batches (continuous mode "
          "needs begin_stepped support)");
    report.execute_seconds += clock_.now() - exec_t0;
    const double prologue = exec->prologue_seconds();
    if (!(prologue > 0.0))
      throw std::logic_error("ServingPipeline: non-positive batch prologue");

    double plan_capacity = 0.0;
    for (const auto& row : work.plan.rows)
      plan_capacity += static_cast<double>(row.width);
    const double grid_capacity = static_cast<double>(
        sched_cfg.batch_rows * sched_cfg.row_capacity);
    batch.slots = std::make_unique<SlotAllocator>(work.plan);
    batch.exec = std::move(exec);
    batch.seconds = prologue;
    batch.requests = served.size();
    batch.splice_eligible =
        plan_capacity >= cfg_.splice_min_fill * grid_capacity;
    ++report.batches;
    report.busy_seconds += prologue;
    report.worker_busy_seconds[worker] += prologue;
    report.batch_occupancy.add(
        used_tokens / static_cast<double>(sched_cfg.batch_rows *
                                          sched_cfg.row_capacity));
    *idle_it = now + prologue;
    report.makespan = std::max(report.makespan, now + prologue);

    if (cfg_.max_batches != 0 && report.batches >= cfg_.max_batches) {
      // Safety valve: stop admitting; live batches still drain to done.
      report.failed += pending.size() + (trace.size() - next_arrival);
      pending.clear();
      next_arrival = trace.size();
      stop = true;
    }
  }

  // ---- Completion / accounting ----------------------------------------
  for (auto& exec : executions) {
    result.peak_kv_bytes = std::max(result.peak_kv_bytes, exec.peak_kv_bytes);
    result.early_freed_bytes += exec.early_freed_bytes;
    result.reclaimable_kv_bytes += exec.reclaimable_kv_bytes;
    for (auto& resp : exec.responses) {
      const auto& times = service_times.at(resp.id);  // throws on unknown id
      resp.scheduled_at = times.first;
      resp.completed_at = times.second;
      result.responses.push_back(std::move(resp));
    }
  }
  std::sort(result.responses.begin(), result.responses.end(),
            [](const Response& a, const Response& b) { return a.id < b.id; });

  const double horizon = std::max(report.makespan, trace_end);
  report.throughput =
      horizon > 0.0 ? static_cast<double>(report.completed) / horizon : 0.0;
  return result;
}

void expect_samples_identical(const Samples& got, const Samples& expected,
                              const char* name) {
  const std::vector<double>& a = got.values();
  const std::vector<double>& b = expected.values();
  ASSERT_EQ(a.size(), b.size()) << name;
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i], b[i]) << name << "[" << i << "]";
}

void expect_pipeline_results_identical(const PipelineResult& got,
                                       const PipelineResult& expected) {
  const ServingReport& a = got.report;
  const ServingReport& b = expected.report;
  EXPECT_EQ(a.scheduler, b.scheduler);
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.arrived, b.arrived);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.total_utility, b.total_utility);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.busy_seconds, b.busy_seconds);
  EXPECT_EQ(a.scheduler_seconds, b.scheduler_seconds);
  EXPECT_EQ(a.admission_seconds, b.admission_seconds);
  EXPECT_EQ(a.batching_seconds, b.batching_seconds);
  EXPECT_EQ(a.execute_seconds, b.execute_seconds);
  EXPECT_EQ(a.worker_busy_seconds, b.worker_busy_seconds);
  EXPECT_EQ(a.backpressure_events, b.backpressure_events);
  EXPECT_EQ(a.spliced_requests, b.spliced_requests);
  EXPECT_EQ(a.slot_releases, b.slot_releases);
  expect_samples_identical(a.latency, b.latency, "latency");
  expect_samples_identical(a.batch_seconds, b.batch_seconds, "batch_seconds");
  expect_samples_identical(a.batch_occupancy, b.batch_occupancy,
                           "batch_occupancy");
  expect_samples_identical(a.batch_requests, b.batch_requests,
                           "batch_requests");
  expect_samples_identical(a.queue_depth, b.queue_depth, "queue_depth");
  expect_samples_identical(a.admission_queue_depth, b.admission_queue_depth,
                           "admission_queue_depth");
  expect_samples_identical(a.slot_occupancy, b.slot_occupancy,
                           "slot_occupancy");

  EXPECT_EQ(got.peak_kv_bytes, expected.peak_kv_bytes);
  EXPECT_EQ(got.early_freed_bytes, expected.early_freed_bytes);
  EXPECT_EQ(got.reclaimable_kv_bytes, expected.reclaimable_kv_bytes);
  ASSERT_EQ(got.responses.size(), expected.responses.size());
  for (std::size_t i = 0; i < got.responses.size(); ++i) {
    const Response& x = got.responses[i];
    const Response& y = expected.responses[i];
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.scheduled_at, y.scheduled_at) << "response " << x.id;
    EXPECT_EQ(x.completed_at, y.completed_at) << "response " << x.id;
    EXPECT_EQ(x.tokens, y.tokens) << "response " << x.id;
    EXPECT_EQ(x.label, y.label) << "response " << x.id;
  }
}

// ---------------------------------------------------------------------------
// Analytical equivalence on the fig09/fig10 operating points.
// ---------------------------------------------------------------------------
WorkloadConfig paper_workload(double rate) {
  WorkloadConfig w;
  w.rate = rate;
  w.duration = 2.0;  // the benches' fast-mode duration
  w.min_len = 3;
  w.max_len = 100;
  w.mean_len = 20.0;
  w.len_variance = 20.0;
  w.deadline_slack_min = 0.5;
  w.deadline_slack_max = 2.0;
  w.seed = 2022;
  return w;
}

TEST(PipelineEquivalenceTest, AnalyticalMatchesFrozenSimulatorOnFig09Fig10) {
  SchedulerConfig sc;
  sc.batch_rows = 64;
  sc.row_capacity = 100;
  const AnalyticalCostModel cost(ModelConfig::paper_scale(),
                                 HardwareProfile::v100_like());
  const auto das = make_scheduler("das", sc);

  // Rates below, around, and far past saturation (fig09/fig10 x-axis).
  for (const double rate : {40.0, 200.0, 450.0, 1500.0}) {
    const auto trace = generate_trace(paper_workload(rate));
    for (const Scheme scheme :
         {Scheme::kNaive, Scheme::kTurbo, Scheme::kConcatPure}) {
      const ReferenceReport expected =
          reference_simulator_run(*das, cost, scheme, 0, trace);

      SimulatorConfig sim;
      sim.scheme = scheme;
      const ServingReport got = ServingSimulator(*das, cost, sim).run(trace);

      SCOPED_TRACE(std::string(scheme_name(scheme)) + " @ rate " +
                   std::to_string(rate));
      EXPECT_EQ(got.completed, expected.completed);
      EXPECT_EQ(got.failed, expected.failed);
      EXPECT_EQ(got.batches, expected.batches);
      EXPECT_DOUBLE_EQ(got.total_utility, expected.total_utility);
      EXPECT_DOUBLE_EQ(got.makespan, expected.makespan);
      EXPECT_DOUBLE_EQ(got.throughput, expected.throughput);
      EXPECT_DOUBLE_EQ(got.busy_seconds, expected.busy_seconds);
    }
  }
}

TEST(PipelineEquivalenceTest, AnalyticalMatchesFrozenSimulatorSlottedDas) {
  SchedulerConfig sc;
  sc.batch_rows = 64;
  sc.row_capacity = 100;
  const AnalyticalCostModel cost(ModelConfig::paper_scale(),
                                 HardwareProfile::v100_like());
  const auto slotted = make_scheduler("slotted-das", sc);
  const auto trace = generate_trace(paper_workload(250.0));

  const ReferenceReport expected = reference_simulator_run(
      *slotted, cost, Scheme::kConcatSlotted, 0, trace);
  SimulatorConfig sim;
  sim.scheme = Scheme::kConcatSlotted;
  const ServingReport got = ServingSimulator(*slotted, cost, sim).run(trace);

  EXPECT_EQ(got.completed, expected.completed);
  EXPECT_EQ(got.failed, expected.failed);
  EXPECT_EQ(got.batches, expected.batches);
  EXPECT_DOUBLE_EQ(got.total_utility, expected.total_utility);
  EXPECT_DOUBLE_EQ(got.makespan, expected.makespan);
}

// A tight admission bound must change nothing but the backpressure counter:
// the pipeline drains inline, so the numbers are capacity-invariant.
TEST(PipelineEquivalenceTest, AdmissionCapacityDoesNotChangeDynamics) {
  SchedulerConfig sc;
  sc.batch_rows = 64;
  sc.row_capacity = 100;
  const AnalyticalCostModel cost(ModelConfig::paper_scale(),
                                 HardwareProfile::v100_like());
  const auto das = make_scheduler("das", sc);
  const auto trace = generate_trace(paper_workload(450.0));
  const AnalyticalBackend backend(cost);
  const VirtualClock clock;

  PipelineConfig wide;
  wide.scheme = Scheme::kConcatPure;
  const PipelineResult roomy =
      ServingPipeline(*das, backend, clock, wide).run(trace);

  PipelineConfig tight = wide;
  tight.admission_capacity = 2;
  const PipelineResult cramped =
      ServingPipeline(*das, backend, clock, tight).run(trace);

  EXPECT_EQ(roomy.report.backpressure_events, 0u);
  EXPECT_GT(cramped.report.backpressure_events, 0u);
  EXPECT_EQ(cramped.report.completed, roomy.report.completed);
  EXPECT_EQ(cramped.report.failed, roomy.report.failed);
  EXPECT_DOUBLE_EQ(cramped.report.total_utility, roomy.report.total_utility);
  EXPECT_DOUBLE_EQ(cramped.report.makespan, roomy.report.makespan);
}

// ---------------------------------------------------------------------------
// Engine equivalence: token-identical outputs, identical simulated times.
// ---------------------------------------------------------------------------
TcbConfig engine_config(Scheme scheme) {
  TcbConfig cfg;
  cfg.model = ModelConfig::test_scale();
  cfg.sched.batch_rows = 4;
  cfg.sched.row_capacity = 24;
  cfg.scheme = scheme;
  cfg.scheduler = scheme == Scheme::kConcatSlotted ? "slotted-das" : "das";
  cfg.max_decode_steps = 6;
  return cfg;
}

WorkloadConfig engine_workload(std::uint64_t seed) {
  WorkloadConfig w;
  w.rate = 40;
  w.duration = 1.0;
  w.min_len = 2;
  w.max_len = 16;
  w.mean_len = 6;
  w.len_variance = 6;
  w.deadline_slack_min = 0.2;  // tight enough that some requests expire
  w.deadline_slack_max = 4.0;
  w.seed = seed;
  w.with_tokens = true;
  w.vocab_size = ModelConfig::test_scale().vocab_size;
  return w;
}

void expect_serve_results_identical(const ServeResult& got,
                                    const ServeResult& expected) {
  EXPECT_EQ(got.failed, expected.failed);
  EXPECT_EQ(got.batches, expected.batches);
  EXPECT_DOUBLE_EQ(got.total_utility, expected.total_utility);
  EXPECT_DOUBLE_EQ(got.makespan, expected.makespan);
  EXPECT_EQ(got.peak_kv_bytes, expected.peak_kv_bytes);
  EXPECT_EQ(got.early_freed_bytes, expected.early_freed_bytes);
  ASSERT_EQ(got.responses.size(), expected.responses.size());
  for (std::size_t i = 0; i < got.responses.size(); ++i) {
    const Response& a = got.responses[i];
    const Response& b = expected.responses[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_DOUBLE_EQ(a.scheduled_at, b.scheduled_at);
    EXPECT_DOUBLE_EQ(a.completed_at, b.completed_at);
    EXPECT_EQ(a.tokens, b.tokens) << "response " << a.id;
    EXPECT_EQ(a.label, b.label);
  }
}

TEST(PipelineEquivalenceTest, EngineServeMatchesFrozenLoopTokenForToken) {
  for (const Scheme scheme : {Scheme::kConcatPure, Scheme::kConcatSlotted}) {
    const TcbConfig cfg = engine_config(scheme);
    const TcbSystem tcb(cfg);
    const AnalyticalCostModel clock(cfg.model, cfg.hardware);
    const auto trace = generate_trace(engine_workload(7));

    const ServeResult expected = reference_serve(
        cfg, tcb.scheduler(), tcb.model(), clock, trace, nullptr);
    const ServeResult got = tcb.serve(trace);

    SCOPED_TRACE(scheme_name(scheme));
    EXPECT_FALSE(got.responses.empty());
    expect_serve_results_identical(got, expected);
  }
}

TEST(PipelineEquivalenceTest, EngineClassifyMatchesFrozenLoop) {
  const TcbConfig cfg = engine_config(Scheme::kConcatPure);
  const TcbSystem tcb(cfg);
  const AnalyticalCostModel clock(cfg.model, cfg.hardware);
  const ClassificationHead head(cfg.model.d_model, /*num_classes=*/4,
                                /*seed=*/11);
  const auto trace = generate_trace(engine_workload(9));

  const ServeResult expected =
      reference_serve(cfg, tcb.scheduler(), tcb.model(), clock, trace, &head);
  const ServeResult got = tcb.serve_classify(trace, head);

  EXPECT_FALSE(got.responses.empty());
  expect_serve_results_identical(got, expected);
}

// ---------------------------------------------------------------------------
// The unified driver against the frozen pre-unification drivers.
// ---------------------------------------------------------------------------
TEST(PipelineEquivalenceTest, UnifiedDriverMatchesFrozenDriversAnalytical) {
  SchedulerConfig sc;
  sc.batch_rows = 16;
  sc.row_capacity = 100;
  const AnalyticalCostModel cost(ModelConfig::paper_scale(),
                                 HardwareProfile::v100_like());
  const AnalyticalBackend backend(cost);
  const VirtualClock clock;

  std::vector<std::vector<Request>> traces;
  for (const double rate : {100.0, 300.0, 900.0}) {
    WorkloadConfig w = paper_workload(rate);
    w.duration = 1.0;
    traces.push_back(generate_trace(w));
  }

  // The grid must reach every branch the drivers differ on, not just run.
  std::size_t spliced = 0;
  std::size_t backpressure = 0;
  std::size_t valve_stops = 0;
  for (const char* name : {"das", "slotted-das", "fcfs"}) {
    const auto scheduler = make_scheduler(name, sc);
    for (const Scheme scheme :
         {Scheme::kNaive, Scheme::kConcatPure, Scheme::kConcatSlotted}) {
      for (std::size_t t = 0; t < traces.size(); ++t) {
        for (const std::size_t workers : {1u, 3u}) {
          for (const bool continuous : {false, true}) {
            for (const std::size_t capacity : {1024u, 2u}) {
              for (const std::size_t max_batches : {0u, 5u}) {
                FrozenConfig frozen;
                frozen.scheme = scheme;
                frozen.workers = workers;
                frozen.continuous = continuous;
                frozen.admission_capacity = capacity;
                frozen.max_batches = max_batches;
                const PipelineConfig cfg = frozen;

                const PipelineResult expected =
                    FrozenPipeline(*scheduler, backend, clock, frozen)
                        .run(traces[t]);
                const PipelineResult got =
                    ServingPipeline(*scheduler, backend, clock, cfg)
                        .run(traces[t]);

                SCOPED_TRACE(std::string(name) + " " + scheme_name(scheme) +
                             " trace " + std::to_string(t) + " workers " +
                             std::to_string(workers) +
                             (continuous ? " continuous" : " rtc") +
                             " capacity " + std::to_string(capacity) +
                             " max_batches " + std::to_string(max_batches));
                expect_pipeline_results_identical(got, expected);
                spliced += got.report.spliced_requests;
                backpressure += got.report.backpressure_events;
                if (max_batches != 0 && got.report.batches == max_batches)
                  ++valve_stops;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(spliced, 0u);
  EXPECT_GT(backpressure, 0u);
  EXPECT_GT(valve_stops, 0u);
}

TEST(PipelineEquivalenceTest, UnifiedDriverMatchesFrozenDriversEngine) {
  SchedulerConfig sc;
  sc.batch_rows = 3;
  sc.row_capacity = 24;
  const auto scheduler = make_scheduler("slotted-das", sc);
  const auto model =
      std::make_shared<const Seq2SeqModel>(ModelConfig::test_scale());
  const AnalyticalCostModel engine_clock(ModelConfig::test_scale(),
                                         HardwareProfile::v100_like());
  InferenceOptions opts;
  opts.mode = AttentionMode::kSlotted;
  // Decode lengths follow the source lengths, so tracks in one batch finish
  // at different iterations and free their slots mid-batch.
  opts.max_decode_steps = 12;
  opts.cap_decode_at_source_length = true;
  opts.early_memory_cleaning = true;
  const EngineBackend backend(model, engine_clock, opts);
  const VirtualClock clock;

  // Loaded well past what three rows serve, so slots vacate while requests
  // wait and the continuous runs splice.
  WorkloadConfig w = engine_workload(31);
  w.rate = 20000;
  w.duration = 0.01;
  w.max_len = 12;
  w.deadline_slack_min = 1.0;
  const auto trace = generate_trace(w);

  for (const std::size_t workers : {1u, 3u}) {
    for (const bool continuous : {false, true}) {
      FrozenConfig frozen;
      frozen.scheme = Scheme::kConcatSlotted;
      frozen.workers = workers;
      frozen.continuous = continuous;
      const PipelineConfig cfg = frozen;

      const PipelineResult expected =
          FrozenPipeline(*scheduler, backend, clock, frozen).run(trace);
      const PipelineResult got =
          ServingPipeline(*scheduler, backend, clock, cfg).run(trace);

      SCOPED_TRACE("workers " + std::to_string(workers) +
                   (continuous ? " continuous" : " rtc"));
      EXPECT_FALSE(got.responses.empty());
      if (continuous) {
        EXPECT_GT(got.report.spliced_requests, 0u);
      }
      expect_pipeline_results_identical(got, expected);
    }
  }
}

}  // namespace
}  // namespace tcb
