// ServingPipeline — the one serving driver behind every serving path
// (paper Fig. 3; DESIGN.md §10). Each idle worker walks the same stages to
// form its next batch:
//
//   1. admission  — arrivals enter a bounded RequestQueue (backpressure at
//                   the edge) and are drained into the pending set via
//                   drain_by_deadline; expired or oversized requests fail;
//   2. selection  — the Scheduler picks the next utility-dominant set
//                   (DAS / Slotted-DAS / baselines);
//   3. formation  — the Scheme's batcher lays the selection out
//                   (batching/factory.hpp) and the placed requests are
//                   accounted as admitted.
//
// The mode (PipelineConfig::continuous) decides only what the formed batch
// becomes:
//
//   * run-to-completion — the backend prices the batch once, every request
//     is stamped at the batch end, and the batch executes inline or, for
//     an offloading backend with several workers, on the thread pool;
//   * continuous — the batch runs through SteppedExecution one decoder
//     iteration per event; finished requests are stamped at their
//     iteration and waiting requests are spliced into vacated slots
//     (DESIGN.md §15).
//
// Completion then stamps every response and accounts it exactly once.
//
// TcbSystem::serve / serve_classify / simulate and ServingSimulator are all
// thin configurations of this class: pick a backend (engine vs analytical),
// a Clock (virtual vs wall, see clock.hpp) and a PipelineConfig.
//
// Determinism: simulated time comes only from backend prices, never the
// Clock (which measures overhead). The pending set is kept in canonical
// (arrival, id) order across admission drains, so scheduler decisions are a
// function of the request set alone — the pipeline reproduces the
// pre-refactor loops bit for bit (tests/serving/pipeline_equivalence_test).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "batching/batch_plan.hpp"
#include "sched/scheduler.hpp"
#include "serving/backend.hpp"
#include "serving/clock.hpp"
#include "util/stats.hpp"

namespace tcb {

struct ServingReport {
  std::string scheduler;
  std::string scheme;

  std::size_t arrived = 0;
  std::size_t completed = 0;        ///< scheduled by deadline and served
  std::size_t failed = 0;           ///< expired in queue or oversized
  double total_utility = 0.0;       ///< objective (9) of the paper
  double throughput = 0.0;          ///< completed responses / second
  double makespan = 0.0;            ///< time the last batch finished
  std::size_t batches = 0;
  double busy_seconds = 0.0;        ///< accelerator busy time (all workers)
  double scheduler_seconds = 0.0;   ///< wall time spent inside select()

  // Per-stage pipeline overhead (measured with the configured Clock; all
  // zero under VirtualClock).
  double admission_seconds = 0.0;   ///< queue admit + drain + evict
  double batching_seconds = 0.0;    ///< scheme layout (stage 3)
  /// Backend execution time: execute() in run-to-completion mode;
  /// begin_stepped(), step() and splice() in continuous mode.
  double execute_seconds = 0.0;

  /// Simulated busy time per worker slot; size = PipelineConfig::workers.
  std::vector<double> worker_busy_seconds;
  /// Admissions rejected by a full bounded queue (drained then retried).
  std::size_t backpressure_events = 0;

  // Continuous (iteration-level) batching only — zero in run-to-completion
  // mode (DESIGN.md §15).
  std::size_t spliced_requests = 0;  ///< admitted into live batches mid-decode
  std::size_t slot_releases = 0;     ///< slot spans vacated mid-batch

  Samples latency;                  ///< completion - arrival per request
  Samples batch_seconds;            ///< per-batch inference time
  Samples batch_occupancy;          ///< used tokens / (rows * L) per batch
  Samples batch_requests;           ///< requests per batch
  Samples queue_depth;              ///< pending count at each decision point
  Samples admission_queue_depth;    ///< bounded-queue depth before each drain
  /// Occupied-slot fraction across live batches, sampled once per decode
  /// step (continuous mode only).
  Samples slot_occupancy;

  [[nodiscard]] std::string summary() const;
};

struct PipelineConfig {
  Scheme scheme = Scheme::kConcatPure;
  /// Slotted scheme: used when the scheduler's Selection does not choose a
  /// slot length (<= 0 falls back to one slot per row).
  Index fixed_slot_len = 0;

  /// Number of accelerators sharing the pending queue; each idle worker
  /// pulls the next scheduler selection. The paper evaluates a single V100;
  /// >1 models the natural scale-out deployment. With an offloading backend
  /// and workers > 1, run-to-completion execution runs concurrently on the
  /// thread pool.
  std::size_t workers = 1;

  /// Safety valve: stop after this many batches (0 = unlimited). A correctly
  /// configured run never hits it.
  std::size_t max_batches = 0;

  /// Bound of the admission queue (backpressure threshold, >= 1).
  std::size_t admission_capacity = 1024;

  /// Continuous (iteration-level) batching: batches execute one decoder
  /// iteration at a time through SteppedExecution; finished requests free
  /// their slots mid-batch and the scheduler splices waiting requests into
  /// the vacated spans between iterations (DESIGN.md §15). Requires a
  /// backend whose begin_stepped() returns non-null. The coordinator steps
  /// every live batch inline — multi-worker continuous runs are simulated
  /// concurrency, deterministic by construction. The two splice gates (fill
  /// at formation, geometry-mismatch drain) are constants in pipeline.cpp.
  bool continuous = false;

  /// Throws std::invalid_argument on a configuration no run can honour.
  void validate() const;
};

/// Everything one pipeline run produced. Analytical runs leave `responses`
/// empty (the backend executes nothing); engine runs return one Response
/// per completed request, sorted by id.
struct PipelineResult {
  ServingReport report;
  std::vector<Response> responses;
  std::size_t peak_kv_bytes = 0;    ///< max over batches
  std::size_t early_freed_bytes = 0;
  /// What an ideal per-request cleaner could have freed (see
  /// DecodeResult::reclaimable_kv_bytes); early_freed_bytes / this ratio
  /// measures how much of the reclaimable memory each scheme actually
  /// returned.
  std::size_t reclaimable_kv_bytes = 0;
};

class ServingPipeline {
 public:
  /// All referenced collaborators must outlive the pipeline.
  ServingPipeline(const Scheduler& scheduler, const ExecutionBackend& backend,
                  const Clock& clock, PipelineConfig cfg);

  /// Runs the whole trace to completion (every request served or expired).
  /// `trace` must be sorted by arrival. Throughput is normalized by
  /// max(makespan, trace duration).
  [[nodiscard]] PipelineResult run(const std::vector<Request>& trace) const;

 private:
  const Scheduler& scheduler_;
  const ExecutionBackend& backend_;
  const Clock& clock_;
  PipelineConfig cfg_;
};

}  // namespace tcb
