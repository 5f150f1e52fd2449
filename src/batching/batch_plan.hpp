// Geometry of one inference batch: which request occupies which span of which
// row. This is the common currency between the scheduler, the batchers, the
// cost model and the inference engine.
//
//   * NaiveBatching (paper Fig. 1a): one request per row, rows padded to the
//     longest request in the batch.
//   * TurboBatching (paper Fig. 1b): one request per row, but the batch holds
//     only requests of similar length (chosen by DP), so padding is small.
//   * Pure ConcatBatching (paper Fig. 1c): several requests concatenated per
//     row; a row is one "slot" spanning the whole row.
//   * Slotted ConcatBatching (paper Fig. 4): rows are divided into fixed-size
//     slots; requests are concatenated within slots and attention runs
//     per slot.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "batching/request.hpp"
#include "tensor/strong_index.hpp"
#include "util/lifetime.hpp"
#include "util/numeric.hpp"

namespace tcb {

enum class Scheme : std::uint8_t {
  kNaive,
  kTurbo,
  kConcatPure,
  kConcatSlotted,
};

[[nodiscard]] const char* scheme_name(Scheme scheme) noexcept;

/// One request's placement inside a batch row.
struct Segment {
  RequestId request_id = -1;
  Index offset = 0;  ///< first token column in the row
  Index length = 0;  ///< token count (== request length)
  Index slot = 0;    ///< slot index within the row (0 for unslotted schemes)

  /// Typed geometry accessors — the sanctioned way to turn a segment into
  /// column/slot coordinates (raw `offset`/`length` arithmetic at call sites
  /// is what tcb-lint's checked-engine-boundary rule polices).
  /// TCB_BATCH_GEOMETRY: a segment's placement depends on what else got
  /// co-batched, so these values may steer *where* a kernel reads/writes but
  /// must never become FP loop extents inside TCB_BITWISE code.
  [[nodiscard]] Col begin_col() const noexcept TCB_BATCH_GEOMETRY {
    return Col{offset};
  }
  [[nodiscard]] Col end_col() const noexcept TCB_BATCH_GEOMETRY {
    return Col{offset + length};
  }
  [[nodiscard]] Slot slot_index() const noexcept TCB_BATCH_GEOMETRY {
    return Slot{slot};
  }
};

struct RowLayout {
  std::vector<Segment> segments;
  /// Materialized width of this row (>= sum of segment lengths). For naive /
  /// turbo batching this is the padded width; for concat schemes it equals
  /// the row capacity L.
  Index width = 0;

  [[nodiscard]] Index used_tokens() const noexcept TCB_BATCH_GEOMETRY;
  [[nodiscard]] Index padded_tokens() const noexcept TCB_BATCH_GEOMETRY {
    return width - used_tokens();
  }
};

class SegmentCache;

struct BatchPlan {
  Scheme scheme = Scheme::kConcatPure;
  /// Row capacity L in tokens (paper §5.1). Rows may materialize narrower
  /// (naive/turbo) but never wider.
  Index row_capacity = 0;
  /// Slot length z; 0 for unslotted schemes (the row is a single slot).
  Index slot_len = 0;
  std::vector<RowLayout> rows;

  [[nodiscard]] bool empty() const noexcept;
  [[nodiscard]] Index request_count() const noexcept TCB_BATCH_GEOMETRY;
  [[nodiscard]] Index used_tokens() const noexcept TCB_BATCH_GEOMETRY;
  [[nodiscard]] Index padded_tokens() const noexcept TCB_BATCH_GEOMETRY;
  /// Widest materialized row; the engine's tensor width. This is *the*
  /// batch-global quantity of the TCB invariant: any arithmetic keyed on it
  /// inside a TCB_BITWISE kernel would make a request's numerics depend on
  /// its co-batched neighbors (batch-geometry-taint's canonical violation).
  [[nodiscard]] Index max_width() const noexcept TCB_BATCH_GEOMETRY;
  [[nodiscard]] std::vector<RequestId> request_ids() const;
  [[nodiscard]] std::string summary() const;

  /// Structural invariants: segments sorted by offset, non-overlapping,
  /// within width, within slot boundaries, width <= capacity. Throws
  /// std::logic_error with a description on violation. Called by tests and
  /// (cheaply) by the engine in debug builds.
  void validate() const;

  /// Effective slot length of a row: slot_len when slotted, row width
  /// otherwise.
  [[nodiscard]] Index effective_slot_len(const RowLayout& row) const noexcept
      TCB_BATCH_GEOMETRY {
    return slot_len > 0 ? slot_len : row.width;
  }

  /// Mask geometry at `width`. Built fresh on every call (microseconds even
  /// for a full 16 x 400 grid), so callers build it once and share it: the
  /// encoder per forward before its fan-out, a decode session once for its
  /// lifetime.
  [[nodiscard]] SegmentCache segment_cache(Col width) const;
};

/// Per-position segment index of a row: map[pos] = index into row.segments,
/// or -1 for padding. The attention mask (paper Eq. 6) is derived from this.
[[nodiscard]] std::vector<std::int32_t> segment_map(const RowLayout& row);

/// Mask geometry of a whole plan at one materialized width, precomputed so
/// the attention kernel never rebuilds per-row segment maps inside the
/// head/task loops. Returned by BatchPlan::segment_cache(); all arrays are
/// flattened rows x width.
class SegmentCache {
 public:
  SegmentCache(const BatchPlan& plan, Col width);

  [[nodiscard]] Index width() const noexcept TCB_BATCH_GEOMETRY {
    return width_;
  }
  [[nodiscard]] Index row_count() const noexcept TCB_BATCH_GEOMETRY {
    return rows_;
  }

  /// Per-position segment index of row r (-1 = padding), `width()` entries.
  /// The row accessors below also carry TCB_BATCH_GEOMETRY for documentation,
  /// but as pointer/reference returns they are not taint seeds: their
  /// *contents* are per-position span tables that kernels consume
  /// span-relatively (lo anchors the tile walk, hi - lo is request-local).
  [[nodiscard]] const std::int32_t* seg_row(Index r) const noexcept
      TCB_LIFETIME_BOUND TCB_BATCH_GEOMETRY {
    return seg_.data() + static_cast<std::size_t>(r) *
                             static_cast<std::size_t>(width_);
  }
  /// Per-position span of the owning segment: position p of row r may attend
  /// (under MaskPolicy::kSegment) exactly to columns [lo, hi). Both are 0
  /// for padding positions.
  [[nodiscard]] const Index* span_lo_row(Index r) const noexcept
      TCB_LIFETIME_BOUND TCB_BATCH_GEOMETRY {
    return span_lo_.data() + static_cast<std::size_t>(r) *
                                 static_cast<std::size_t>(width_);
  }
  [[nodiscard]] const Index* span_hi_row(Index r) const noexcept
      TCB_LIFETIME_BOUND TCB_BATCH_GEOMETRY {
    return span_hi_.data() + static_cast<std::size_t>(r) *
                                 static_cast<std::size_t>(width_);
  }
  /// Maximal contiguous non-padding column ranges of row r (adjacent
  /// segments merged) — the attendable set under MaskPolicy::kRowShared.
  [[nodiscard]] const std::vector<std::pair<Index, Index>>& used_spans(
      Index r) const noexcept TCB_LIFETIME_BOUND TCB_BATCH_GEOMETRY {
    return used_spans_[static_cast<std::size_t>(r)];
  }

 private:
  Index width_ = 0;
  Index rows_ = 0;
  std::vector<std::int32_t> seg_;
  std::vector<Index> span_lo_;
  std::vector<Index> span_hi_;
  std::vector<std::vector<std::pair<Index, Index>>> used_spans_;
};

/// Result of laying out a selection of requests into one batch.
struct BatchBuildResult {
  BatchPlan plan;
  /// Requests that did not fit and must stay in the pending queue.
  std::vector<Request> leftover;
};

/// Interface implemented by the four batching schemes. `selected` is the
/// scheduler's choice, already ordered by scheduling priority; a batcher
/// must preserve that precedence when space runs out (drop from the tail).
///
/// `batch_rows` (the vertical extent B) and `row_capacity` (the horizontal
/// extent L) are strong-typed: both used to be plain Index, and swapping
/// them built a plausible-looking but transposed batch. Now it won't compile.
class Batcher {
 public:
  virtual ~Batcher() = default;
  [[nodiscard]] virtual Scheme scheme() const noexcept = 0;
  [[nodiscard]] virtual BatchBuildResult build(std::vector<Request> selected,
                                               Row batch_rows,
                                               Col row_capacity) const = 0;
};

}  // namespace tcb
