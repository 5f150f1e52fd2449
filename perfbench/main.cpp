// Serving benchmark: runs one named workload through the real
// ServingPipeline with timing decorators around the scheduler and the
// backend, checks the outputs, and prints every metric with its unit and
// sample count. The last stdout line is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Usage:
//
//   tcb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-dir <dir>]
//
// A run is a sequence of rounds, each one ServingPipeline::run over a fresh
// trace from the workload's generator (round r uses a seed derived from
// --seed and r), repeated until the summed run() wall time reaches
// --seconds. With --trace 1 the untraced rounds get half the budget and each
// round is replayed at once with span recording; the difference is the
// tracing overhead. perfbench/README.md defines every metric.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "batching/factory.hpp"
#include "serving/clock.hpp"
#include "tensor/ops.hpp"
#include "tensor/tuning.hpp"
#include "tensor/workspace.hpp"
#include "timed.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace tcb::perfbench {
namespace {

constexpr int kSetupReps = 5;
/// Responses of round 0 re-executed alone per run.
constexpr std::size_t kReexecSamples = 16;
/// Upper limit of TCB_THREADS; a run pins min(nproc, this) and prints it.
constexpr unsigned kPoolThreads = 4;
/// Rows of the decode-shaped GEMM probe when the run made no decode steps
/// (encode-classify): the median tracks per step decode-continuous measures
/// (8-10). Decode-continuous uses its own median.
constexpr Index kDefaultDecodeRows = 10;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = std::stoi(val) != 0;
    } else if (key == "--trace-dir") {
      a.trace_dir = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

double quantile_or_zero(const Samples& s, double q) {
  return s.empty() ? 0.0 : s.quantile(q);
}
double mean_or_zero(const Samples& s) { return s.empty() ? 0.0 : s.mean(); }
double ratio_or_zero(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

void merge_into(Samples& dst, const Samples& src) {
  for (const double v : src.values()) dst.add(v);
}

/// Peak resident set size (VmHWM) of this process, in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(status, rest);
  }
  return 0.0;
}

/// Runs `fn` on a new thread and waits for it. The kernels' scratch arena
/// (tensor/workspace.hpp) belongs to the calling thread and is freed when
/// that thread exits. Its chunk-reuse defect grows the arena by one chunk per
/// overflowing GEMM, i.e. per decode step, so engine work runs on short-lived
/// threads: the process then holds at most one round's growth. The growth
/// itself still shows, in tensor.ws_reserved_mb (cumulative over the run)
/// and in peak_rss_mb (one round's worth).
template <class Fn>
auto on_fresh_thread(Fn&& fn) -> decltype(fn()) {
  std::optional<decltype(fn())> out;
  std::exception_ptr error;
  std::thread worker([&] {
    try {
      out.emplace(fn());
    } catch (...) {
      error = std::current_exception();
    }
  });
  worker.join();
  if (error) std::rethrow_exception(error);
  return std::move(*out);
}

/// The per-round wall-clock figures. A run reports the median across its
/// rounds, so one slow round (a busy neighbour, a page-fault burst) sets
/// neither the throughput nor the tail. The p50s instead pool every sample
/// of the run: a round's share of spliced requests varies, and its TTFT
/// mixes a fast (spliced) and a slow (batch-encoded) mode.
struct RoundFigures {
  double req_per_s = 0.0;
  double gen_tok_per_s = 0.0;
  double ttft_p99 = 0.0;
  double itl_p99 = 0.0;
  double latency_p99 = 0.0;
};

/// What one lane of decorated pipeline runs measured, summed over its
/// rounds.
struct Phase {
  Probe probe;
  std::vector<RoundFigures> figures;
  double run_s = 0.0;  ///< summed ServingPipeline::run wall time
  std::size_t arrived = 0;
  std::size_t completed = 0;
  std::size_t emitted = 0;
  std::size_t conservation_errors = 0;
  Samples ttft_ms;  ///< pooled over the rounds
  Samples itl_ms;
  Samples latency_ms;
  double admission_s = 0.0;
  double batching_s = 0.0;
  std::size_t backpressure = 0;
  std::size_t spliced = 0;
  Samples slot_occupancy;
  Samples batch_occupancy;
  Samples batch_requests;
  std::size_t peak_kv_bytes = 0;
  double early_freed_bytes = 0.0;
  double reclaimable_kv_bytes = 0.0;
  double ws_chunk_allocs = 0.0;  ///< deltas summed over the rounds
  double ws_reserved_mb = 0.0;
  /// Results of the first sim_rounds rounds (the sim_* metrics' base) and
  /// each one's horizon, max(makespan, last arrival).
  std::vector<PipelineResult> sim;
  std::vector<double> sim_horizon;

  [[nodiscard]] std::size_t rounds() const { return figures.size(); }
};

/// Counts violations of: arrived = completed + failed, exactly one response
/// per completed request, every response id from the trace, and outputs
/// inside the workload's range.
std::size_t conservation_errors(const WorkloadSpec& spec,
                                const std::vector<Request>& trace,
                                const PipelineResult& res) {
  std::size_t errors = 0;
  const ServingReport& r = res.report;
  if (r.arrived != trace.size()) ++errors;
  if (r.completed + r.failed != r.arrived) ++errors;
  if (res.responses.size() != r.completed) ++errors;
  std::unordered_map<RequestId, Index> length_of;
  for (const Request& req : trace) length_of.emplace(req.id, req.length);
  std::unordered_set<RequestId> seen;
  for (const Response& resp : res.responses) {
    const auto it = length_of.find(resp.id);
    if (it == length_of.end() || !seen.insert(resp.id).second) {
      ++errors;
      continue;
    }
    if (spec.n_classes > 0) {
      if (resp.label < 0 || resp.label >= spec.n_classes) ++errors;
    } else {
      const Index cap = std::min(it->second, spec.opts.max_decode_steps);
      if (static_cast<Index>(resp.tokens.size()) > cap) ++errors;
    }
  }
  return errors;
}

/// A decorated pipeline and what it measured. The decorators hold
/// references into `ph`, so a Lane is built in place and never moved.
struct Lane {
  Lane(const WorkloadSpec& spec, const Stack& stack, SpanLog* log)
      : sched(*stack.scheduler, ph.probe),
        backend(*stack.backend, ph.probe),
        pipeline(sched, backend, clock, spec.pipe) {
    ph.probe.log = log;
  }
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

  Phase ph;
  TimedScheduler sched;
  TimedBackend backend;
  WallClock clock;
  ServingPipeline pipeline;
};

/// Runs round `round` over `trace` through `lane` on a fresh thread and
/// records it.
void run_round(const WorkloadSpec& spec, Lane& lane,
               const std::vector<Request>& trace, std::size_t round) {
  Phase& ph = lane.ph;
  Probe& probe = ph.probe;
  struct Timed {
    PipelineResult res;
    double t0 = 0.0;
    double t1 = 0.0;
  };
  const auto allocs0 = Workspace::total_chunk_allocs();
  const auto reserved0 = Workspace::total_reserved_bytes();
  Timed run = on_fresh_thread([&] {
    Timed t;
    t.t0 = now_s();
    t.res = lane.pipeline.run(trace);
    t.t1 = now_s();
    return t;
  });
  ph.ws_chunk_allocs +=
      static_cast<double>(Workspace::total_chunk_allocs() - allocs0);
  ph.ws_reserved_mb +=
      static_cast<double>(Workspace::total_reserved_bytes() - reserved0) /
      (1024.0 * 1024.0);
  const double wall = run.t1 - run.t0;
  if (probe.log != nullptr) probe.log->add("pipeline.run", run.t0, run.t1);

  const ServingReport& r = run.res.report;
  RoundFigures f;
  f.req_per_s = static_cast<double>(r.completed) / wall;
  f.gen_tok_per_s = static_cast<double>(probe.emitted) / wall;
  f.ttft_p99 = quantile_or_zero(probe.ttft_ms, 0.99);
  f.itl_p99 = quantile_or_zero(probe.itl_ms, 0.99);
  f.latency_p99 = quantile_or_zero(probe.latency_ms, 0.99);
  ph.figures.push_back(f);
  merge_into(ph.ttft_ms, probe.ttft_ms);
  merge_into(ph.itl_ms, probe.itl_ms);
  merge_into(ph.latency_ms, probe.latency_ms);
  probe.ttft_ms = Samples{};
  probe.itl_ms = Samples{};
  probe.latency_ms = Samples{};
  ph.emitted += probe.emitted;
  probe.emitted = 0;

  ph.run_s += wall;
  ph.arrived += r.arrived;
  ph.completed += r.completed;
  ph.conservation_errors += conservation_errors(spec, trace, run.res);
  ph.admission_s += r.admission_seconds;
  ph.batching_s += r.batching_seconds;
  ph.backpressure += r.backpressure_events;
  ph.spliced += r.spliced_requests;
  merge_into(ph.slot_occupancy, r.slot_occupancy);
  merge_into(ph.batch_occupancy, r.batch_occupancy);
  merge_into(ph.batch_requests, r.batch_requests);
  ph.peak_kv_bytes = std::max(ph.peak_kv_bytes, run.res.peak_kv_bytes);
  ph.early_freed_bytes += static_cast<double>(run.res.early_freed_bytes);
  ph.reclaimable_kv_bytes +=
      static_cast<double>(run.res.reclaimable_kv_bytes);
  if (round < spec.sim_rounds) {
    const double last_arrival = trace.empty() ? 0.0 : trace.back().arrival;
    ph.sim_horizon.push_back(std::max(r.makespan, last_arrival));
    ph.sim.push_back(std::move(run.res));
  }
}

std::vector<double> sorted_values(const Samples& s) {
  std::vector<double> v = s.values();
  std::sort(v.begin(), v.end());
  return v;
}

/// Everything a run decides, with stage wall timings excluded (those are
/// zero under VirtualClock and machine-dependent under WallClock).
bool same_accounting(const PipelineResult& a, const PipelineResult& b) {
  const ServingReport& x = a.report;
  const ServingReport& y = b.report;
  const bool report_same =
      x.scheduler == y.scheduler && x.scheme == y.scheme &&
      x.arrived == y.arrived && x.completed == y.completed &&
      x.failed == y.failed && x.total_utility == y.total_utility &&
      x.throughput == y.throughput && x.makespan == y.makespan &&
      x.batches == y.batches && x.busy_seconds == y.busy_seconds &&
      x.worker_busy_seconds == y.worker_busy_seconds &&
      x.backpressure_events == y.backpressure_events &&
      x.spliced_requests == y.spliced_requests &&
      x.slot_releases == y.slot_releases &&
      sorted_values(x.latency) == sorted_values(y.latency) &&
      sorted_values(x.batch_seconds) == sorted_values(y.batch_seconds) &&
      sorted_values(x.batch_occupancy) == sorted_values(y.batch_occupancy) &&
      sorted_values(x.batch_requests) == sorted_values(y.batch_requests) &&
      sorted_values(x.queue_depth) == sorted_values(y.queue_depth) &&
      sorted_values(x.admission_queue_depth) ==
          sorted_values(y.admission_queue_depth) &&
      sorted_values(x.slot_occupancy) == sorted_values(y.slot_occupancy);
  if (!report_same || a.peak_kv_bytes != b.peak_kv_bytes ||
      a.early_freed_bytes != b.early_freed_bytes ||
      a.reclaimable_kv_bytes != b.reclaimable_kv_bytes ||
      a.responses.size() != b.responses.size())
    return false;
  for (std::size_t i = 0; i < a.responses.size(); ++i) {
    const Response& p = a.responses[i];
    const Response& q = b.responses[i];
    if (p.id != q.id || p.scheduled_at != q.scheduled_at ||
        p.completed_at != q.completed_at || p.tokens != q.tokens ||
        p.label != q.label)
      return false;
  }
  return true;
}

/// The decorators change nothing: on the check trace the undecorated
/// pipeline under VirtualClock, the decorated one and the traced decorated
/// one must agree on every decision and every output.
bool transparency_check(const WorkloadSpec& spec, const Stack& stack,
                        std::uint64_t seed) {
  const std::vector<Request> trace =
      make_trace(spec, seed, 0, spec.check_duration);
  const VirtualClock virtual_clock;
  const ServingPipeline bare(*stack.scheduler, *stack.backend, virtual_clock,
                             spec.pipe);
  const PipelineResult reference =
      on_fresh_thread([&] { return bare.run(trace); });

  const auto decorated = [&](SpanLog* log) {
    Probe probe;
    probe.log = log;
    const TimedScheduler sched(*stack.scheduler, probe);
    const TimedBackend backend(*stack.backend, probe);
    const WallClock clock;
    const ServingPipeline pipeline(sched, backend, clock, spec.pipe);
    return on_fresh_thread([&] { return pipeline.run(trace); });
  };
  SpanLog log;
  return same_accounting(reference, decorated(nullptr)) &&
         same_accounting(reference, decorated(&log));
}

/// Re-executes a seeded sample of round 0's responses alone, each as a
/// one-request batch through the same backend's execute(), and counts the
/// ones whose tokens or label differ bitwise.
std::size_t reexecute_sample(const WorkloadSpec& spec, const Stack& stack,
                             const Phase& ph,
                             const std::vector<Request>& first_trace,
                             std::uint64_t seed, std::size_t* checked) {
  const std::vector<Response>& responses = ph.sim.front().responses;
  std::vector<std::size_t> picks(responses.size());
  for (std::size_t i = 0; i < picks.size(); ++i) picks[i] = i;
  Rng rng(seed ^ 0x5eedc0deULL);
  const std::size_t n = std::min(kReexecSamples, picks.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(i),
        static_cast<std::int64_t>(picks.size() - 1)));
    std::swap(picks[i], picks[j]);
  }
  std::unordered_map<RequestId, const Request*> by_id;
  for (const Request& req : first_trace) by_id.emplace(req.id, &req);

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Response& served = responses[picks[i]];
    const Request& req = *by_id.at(served.id);
    BatchWork work;
    work.plan = build_with_scheme(spec.pipe.scheme, {req}, Row{1},
                                  Col{spec.sched.row_capacity})
                    .plan;
    work.requests = {req};
    const BatchExecution alone =
        on_fresh_thread([&] { return stack.backend->execute(work); });
    if (alone.responses.size() != 1 ||
        alone.responses[0].tokens != served.tokens ||
        alone.responses[0].label != served.label)
      ++mismatches;
  }
  *checked = n;
  return mismatches;
}

/// Achieved Gmadd/s of matmul at (m,k)x(k,n), timed over >= 0.2 s. Call on
/// a fresh thread (the decode shape grows the arena on every call).
double gemm_gmadds(Index m, Index k, Index n) {
  Rng rng(7);
  const Tensor a = Tensor::random_uniform(Shape{m, k}, rng, 1.0f);
  const Tensor b = Tensor::random_uniform(Shape{k, n}, rng, 1.0f);
  Tensor c(Shape{m, n});
  matmul(a, b, c);  // warm the arena and the caches
  std::size_t reps = 0;
  const double t0 = now_s();
  double elapsed = 0.0;
  while (elapsed < 0.2) {
    matmul(a, b, c);
    ++reps;
    elapsed = now_s() - t0;
  }
  return static_cast<double>(m) * static_cast<double>(k) *
         static_cast<double>(n) * static_cast<double>(reps) / elapsed / 1e9;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 0;
  std::string base;  ///< what a ratio or delta is relative to
};

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("\n%s\n%-34s %16s  %-6s %9s  %s\n", title, "metric", "value",
              "unit", "samples", "base");
  for (const Metric& m : metrics)
    std::printf("%-34s %16.6g  %-6s %9zu  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.base.c_str());
}

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  const WorkloadSpec* spec_ptr = find_workload(args.workload);
  if (spec_ptr == nullptr) {
    std::string known;
    for (const auto& n : workload_names()) known += " " + n;
    throw std::invalid_argument("unknown workload '" + args.workload +
                                "'; known:" + known);
  }
  const WorkloadSpec& spec = *spec_ptr;

  // Pin the pool size before anything creates the global pool. Pin the
  // GEMM blocking too: the autotuner keeps the faster of two trial timings
  // per candidate, and on a shared host that picks a different microkernel
  // in almost every process (5 selections in 8 processes), which made
  // throughput bimodal between runs. Every run uses the ISA default.
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads = std::min(nproc, kPoolThreads);
  setenv("TCB_THREADS", std::to_string(threads).c_str(), 1);
  setenv("TCB_GEMM_AUTOTUNE", "0", 1);
  unsetenv("TCB_TUNE_CACHE");

  // ---- Set-up: model build + weight init + first trace -----------------
  Samples setup_s;
  Stack stack;
  std::vector<Request> first_trace;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = now_s();
    stack = build_stack(spec);
    first_trace = make_trace(spec, args.seed, 0, spec.trace.duration);
    setup_s.add(now_s() - t0);
  }

  // The transparency check doubles as the warm-up: it runs the whole stack
  // before anything is measured.
  const bool transparent = transparency_check(spec, stack, args.seed);

  // ---- Measured rounds -------------------------------------------------
  // With --trace 1 every round's trace is replayed right away on a traced
  // lane, so both lanes see the same inputs and the same process state.
  Lane plain_lane(spec, stack, nullptr);
  SpanLog log;
  std::optional<Lane> traced_lane;
  if (args.trace) traced_lane.emplace(spec, stack, &log);
  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  for (std::size_t round = 0;
       round < spec.sim_rounds || plain_lane.ph.run_s < untraced_budget;
       ++round) {
    const std::vector<Request> trace =
        round == 0 ? first_trace
                   : make_trace(spec, args.seed, round, spec.trace.duration);
    run_round(spec, plain_lane, trace, round);
    if (traced_lane) run_round(spec, *traced_lane, trace, round);
  }
  const double rss_mb = peak_rss_mb();
  const Phase& plain = plain_lane.ph;
  const Phase empty;
  const Phase& traced = traced_lane ? traced_lane->ph : empty;

  // ---- Output checks (outside the timed region) ------------------------
  std::size_t reexec_checked = 0;
  const std::size_t mismatches = reexecute_sample(
      spec, stack, plain, first_trace, args.seed, &reexec_checked);
  bool traced_same = true;
  for (std::size_t i = 0; args.trace && i < plain.sim.size(); ++i)
    traced_same = traced_same && same_accounting(plain.sim[i], traced.sim[i]);
  const std::size_t check_errors = plain.conservation_errors +
                                   traced.conservation_errors + mismatches;
  const bool correct = check_errors == 0 && transparent && traced_same;

  // sim_* pool the first sim_rounds rounds' reports: a function of the seed.
  std::size_t sim_completed = 0;
  double sim_horizon = 0.0;
  double sim_utility = 0.0;
  Samples sim_latency;
  for (std::size_t i = 0; i < plain.sim.size(); ++i) {
    const ServingReport& r = plain.sim[i].report;
    sim_completed += r.completed;
    sim_horizon += plain.sim_horizon[i];
    sim_utility += r.total_utility;
    merge_into(sim_latency, r.latency);
  }
  const auto sim_n = static_cast<double>(plain.sim.size());

  const Probe& p = plain.probe;
  const auto completed = static_cast<double>(plain.completed);
  const auto across_rounds = [&](double RoundFigures::*field) {
    Samples v;
    for (const RoundFigures& f : plain.figures) v.add(f.*field);
    return quantile_or_zero(v, 0.5);
  };
  const std::string per_round = "median of " +
                                std::to_string(plain.rounds()) + " rounds";
  std::vector<Metric> e2e = {
      {"setup_s", "s", setup_s.p50(), setup_s.count(),
       "median of set-ups in this run"},
      {"req_per_s", "1/s", across_rounds(&RoundFigures::req_per_s),
       plain.completed, per_round + "; completed / run() wall"},
      {"gen_tok_per_s", "1/s", across_rounds(&RoundFigures::gen_tok_per_s),
       plain.emitted, per_round + "; emitted outputs / run() wall"},
      {"ttft_ms_p50", "ms", quantile_or_zero(plain.ttft_ms, 0.5),
       plain.ttft_ms.count(), "all samples pooled"},
      {"ttft_ms_p99", "ms", across_rounds(&RoundFigures::ttft_p99),
       plain.ttft_ms.count(), per_round},
      {"itl_ms_p50", "ms", quantile_or_zero(plain.itl_ms, 0.5),
       plain.itl_ms.count(), "all samples pooled"},
      {"itl_ms_p99", "ms", across_rounds(&RoundFigures::itl_p99),
       plain.itl_ms.count(), per_round},
      {"latency_ms_p50", "ms", quantile_or_zero(plain.latency_ms, 0.5),
       plain.latency_ms.count(), "all samples pooled"},
      {"latency_ms_p99", "ms", across_rounds(&RoundFigures::latency_p99),
       plain.latency_ms.count(), per_round},
      {"peak_rss_mb", "MB", rss_mb, 1, "VmHWM after the rounds"},
      {"ok_frac", "ratio",
       ratio_or_zero(completed - static_cast<double>(check_errors),
                     static_cast<double>(plain.arrived)),
       plain.arrived, "arrived; 1 - fail_frac"},
      {"sim_goodput_rps", "1/s", ratio_or_zero(sim_completed, sim_horizon),
       sim_completed, "ServingReport, first rounds pooled"},
      {"sim_utility", "utility", ratio_or_zero(sim_utility, sim_n), sim_completed,
       "ServingReport, mean per round"},
      {"sim_latency_p99_s", "s", quantile_or_zero(sim_latency, 0.99),
       sim_latency.count(), "ServingReport, first rounds pooled"},
  };

  const double sched_s = p.sched_seconds();
  const double exec_s = p.execute_seconds();
  const Index decode_rows =
      !p.tracks_per_step.empty()
          ? std::max<Index>(1, static_cast<Index>(std::lround(
                                   p.tracks_per_step.p50())))
          : kDefaultDecodeRows;
  double gemm_square = 0.0;
  double gemm_decode = 0.0;
  if (args.trace) {
    gemm_square = on_fresh_thread([] { return gemm_gmadds(256, 256, 256); });
    gemm_decode = on_fresh_thread(
        [&] { return gemm_gmadds(decode_rows, 128, 8000); });
  }
  std::vector<Metric> layer = {
      {"serving.admission_s", "s", plain.admission_s, plain.rounds(), ""},
      {"serving.backpressure_events", "count",
       static_cast<double>(plain.backpressure), plain.rounds(), ""},
      {"serving.loop_s", "s",
       plain.run_s - sched_s - plain.batching_s - plain.admission_s - exec_s,
       plain.rounds(), "run() wall minus sched/batching/admission/execute"},
      {"serving.execute_s", "s", exec_s, p.encode_ms.count(), ""},
      {"serving.spliced_frac", "ratio",
       ratio_or_zero(static_cast<double>(plain.spliced), completed),
       plain.completed, "completed"},
      {"serving.slot_occupancy_mean", "ratio", mean_or_zero(plain.slot_occupancy),
       plain.slot_occupancy.count(), ""},
      {"sched.select_calls", "count",
       static_cast<double>(p.select_ms.count()), p.select_ms.count(), ""},
      {"sched.select_ms_p50", "ms", quantile_or_zero(p.select_ms, 0.5),
       p.select_ms.count(), ""},
      {"sched.select_ms_p99", "ms", quantile_or_zero(p.select_ms, 0.99),
       p.select_ms.count(), ""},
      {"sched.slots_calls", "count", static_cast<double>(p.slots_ms.count()),
       p.slots_ms.count(), ""},
      {"sched.slots_ms_p50", "ms", quantile_or_zero(p.slots_ms, 0.5),
       p.slots_ms.count(), ""},
      {"sched.slots_ms_p99", "ms", quantile_or_zero(p.slots_ms, 0.99),
       p.slots_ms.count(), ""},
      {"sched.pending_p50", "count", quantile_or_zero(p.pending, 0.5),
       p.pending.count(), ""},
      {"batching.form_s", "s", plain.batching_s, plain.batch_occupancy.count(),
       ""},
      {"batching.occupancy_mean", "ratio", mean_or_zero(plain.batch_occupancy),
       plain.batch_occupancy.count(), "rows * L"},
      {"batching.requests_per_batch_mean", "count",
       mean_or_zero(plain.batch_requests), plain.batch_requests.count(), ""},
      {"batching.useful_token_frac", "ratio",
       ratio_or_zero(p.plan_used_tokens, p.plan_grid_tokens),
       p.encode_ms.count(), "rows * packed width"},
      {"nn.encode_calls", "count", static_cast<double>(p.encode_ms.count()),
       p.encode_ms.count(), ""},
      {"nn.encode_ms_p50", "ms", quantile_or_zero(p.encode_ms, 0.5),
       p.encode_ms.count(), ""},
      {"nn.encode_ms_p99", "ms", quantile_or_zero(p.encode_ms, 0.99),
       p.encode_ms.count(), ""},
      {"nn.encode_tok_per_s", "1/s",
       ratio_or_zero(p.encode_tokens, p.encode_ms.sum() / 1e3),
       p.encode_ms.count(), ""},
      {"nn.steps", "count", static_cast<double>(p.step_ms.count()),
       p.step_ms.count(), ""},
      {"nn.step_ms_p50", "ms", quantile_or_zero(p.step_ms, 0.5),
       p.step_ms.count(), ""},
      {"nn.step_ms_p99", "ms", quantile_or_zero(p.step_ms, 0.99),
       p.step_ms.count(), ""},
      {"nn.tracks_per_step_mean", "count", mean_or_zero(p.tracks_per_step),
       p.tracks_per_step.count(), ""},
      {"nn.splice_calls", "count", static_cast<double>(p.splice_ms.count()),
       p.splice_ms.count(), ""},
      {"nn.splice_ms_p50", "ms", quantile_or_zero(p.splice_ms, 0.5),
       p.splice_ms.count(), ""},
      {"nn.peak_kv_mb", "MB",
       static_cast<double>(plain.peak_kv_bytes) / (1024.0 * 1024.0),
       plain.rounds(), ""},
      {"nn.early_freed_frac", "ratio",
       ratio_or_zero(plain.early_freed_bytes, plain.reclaimable_kv_bytes),
       plain.rounds(), "reclaimable KV bytes"},
      {"tensor.ws_chunk_allocs", "count", plain.ws_chunk_allocs, plain.rounds(),
       "delta over the rounds; process total " +
           std::to_string(Workspace::total_chunk_allocs())},
      {"tensor.ws_reserved_mb", "MB", plain.ws_reserved_mb, plain.rounds(),
       "delta over the rounds; process total " +
           std::to_string(Workspace::total_reserved_bytes() >> 20) + " MB"},
      {"tensor.gemm_square_gmadds", "Gmadd/s", gemm_square, 1,
       "matmul 256x256x256"},
      {"tensor.gemm_decode_gmadds", "Gmadd/s", gemm_decode, 1,
       "matmul " + std::to_string(decode_rows) + "x128x8000"},
      {"tensor.gemm_decode_ratio", "ratio",
       ratio_or_zero(gemm_decode, gemm_square), 1,
       "square GEMM " + std::to_string(gemm_square) + " Gmadd/s"},
      {"trace.overhead_frac", "ratio",
       args.trace ? ratio_or_zero(traced.run_s, plain.run_s) - 1.0 : 0.0,
       traced.rounds(),
       "untraced run() wall " + std::to_string(plain.run_s) + " s"},
  };
  // Self time per decorator boundary, from the traced rounds.
  const char* const kSpanNames[] = {
      "pipeline.run",   "sched.select",          "sched.select_for_slots",
      "backend.execute", "backend.begin_stepped", "exec.step",
      "exec.splice",    "exec.finish"};
  const std::vector<SpanLog::SelfTime> self = log.self_times();
  for (const char* name : kSpanNames) {
    Metric m{std::string("self.") + name + "_s", "s", 0.0, 0, "traced run"};
    for (const auto& t : self)
      if (t.name == name) {
        m.value = t.self_s;
        m.samples = t.count;
      }
    layer.push_back(m);
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "TCB_THREADS=%u nproc=%u rounds=%zu run_s=%.3f\ngemm: %s\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, threads, nproc, plain.rounds(),
              plain.run_s, gemm_tuning_summary().c_str());
  std::printf("checks: conservation_errors=%zu reexec_mismatches=%zu/%zu "
              "transparency=%s traced_equals_untraced=%s\n",
              plain.conservation_errors + traced.conservation_errors,
              mismatches, reexec_checked, transparent ? "ok" : "FAILED",
              args.trace ? (traced_same ? "ok" : "FAILED") : "n/a");
  print_table("end-to-end (untraced rounds)", e2e);
  print_table("per-layer (untraced rounds; self.* from the traced rounds)",
              layer);
  if (args.trace && !args.trace_dir.empty()) {
    const std::string path = args.trace_dir + "/trace-" + spec.name +
                             "-seed" + std::to_string(args.seed) + ".json";
    log.write_chrome_json(path);
    std::printf("span file: %s (%zu spans)\n", path.c_str(),
                log.spans().size());
  }
  std::fflush(stdout);

  // A request the scheduler let expire is a served outcome of the workload
  // (counted in ok_frac); a failed operation is an output that broke a check.
  const std::size_t attempted = plain.arrived + traced.arrived;
  print_json(correct, attempted, check_errors, args.trace ? layer : e2e);
  return 0;
}

}  // namespace
}  // namespace tcb::perfbench

int main(int argc, char** argv) {
  try {
    return tcb::perfbench::run(tcb::perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tcb_perfbench: %s\n", e.what());
    return 2;
  }
}
