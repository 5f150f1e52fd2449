// Slot groups and the slot allocator for continuous iteration-level
// batching (DESIGN.md §15).
//
// A formed BatchPlan fixes a grid of slots: under Slotted ConcatBatching
// every row divides into fixed-size slots of length z; under the other
// schemes each row is one slot spanning its full width. The paper's early
// memory cleaning (§4.2.2) frees a slot's K/V caches the moment its last
// decode track finishes. SlotGroupTable says which tracks share a slot and
// when it frees; SlotAllocator turns that *memory* event into a
// *scheduling* event: the serving coordinator releases the vacated slot
// here, asks for the vacant spans, and splices newly-admitted requests into
// them between decoder iterations.
//
// Not thread-safe: each live batch's allocator belongs to the serving
// coordinator, which steps continuous batches itself and is the only
// caller. A free list keeps release/acquire at O(1)/O(k). Vacancy order is
// the release order (FIFO), which keeps continuous-mode runs deterministic:
// the coordinator processes step events in a canonical order, so the free
// list's history is a pure function of the trace.
#pragma once

#include <cstddef>
#include <vector>

#include "batching/batch_plan.hpp"
#include "util/lifetime.hpp"

namespace tcb {

/// Identity + geometry of one allocatable slot: the reusable column span
/// [begin, begin + width) of `row`.
struct SlotSpan {
  Row row{0};
  Slot slot{0};
  Col begin{0};
  Index width = 0;
};

/// A slot whose every track finished — vacated and ready for re-use by the
/// continuous-batching coordinator. `begin`/`width` give the reusable column
/// span of the row (the slot span for per-slot groups, the whole row
/// otherwise).
struct SlotRelease {
  Row row{0};
  Slot slot{0};
  Col begin{0};
  Index width = 0;
  std::vector<RequestId> finished;  ///< the requests that occupied it
};

/// Which decode tracks share a slot span, and when that span is released.
///
/// Groups are per slot (Slotted ConcatBatching: the tracks of one
/// (row, slot)) or per row (one group spanning the row's full width); the
/// caller decides. Tracks are numbered in plan order (rows, then segments),
/// then spliced cohorts in admission order. Groups are numbered in the order
/// of their first track, then spliced cohorts. A group is released in the
/// step its last member finishes.
///
/// Not thread-safe: each execution owns its table.
class SlotGroupTable {
 public:
  SlotGroupTable(const BatchPlan& plan, bool per_slot);

  /// The plan's slot grid in (row, slot) order: every slot of a non-empty
  /// row when groups are per slot, one whole-row span per non-empty row
  /// otherwise.
  [[nodiscard]] const std::vector<SlotSpan>& spans() const noexcept
      TCB_LIFETIME_BOUND {
    return spans_;
  }
  /// True when the plan placed at least one track in spans()[span].
  [[nodiscard]] bool formed(std::size_t span) const { return formed_[span]; }

  [[nodiscard]] std::size_t group_of(std::size_t track) const {
    return group_of_[track];
  }
  [[nodiscard]] RequestId request(std::size_t track) const {
    return requests_[track];
  }
  /// The span `group` occupies.
  [[nodiscard]] const SlotSpan& span(std::size_t group) const
      TCB_LIFETIME_BOUND {
    return groups_[group].span;
  }
  /// The tracks of `group`, in track order.
  [[nodiscard]] const std::vector<std::size_t>& members(
      std::size_t group) const TCB_LIFETIME_BOUND {
    return groups_[group].members;
  }

  /// Marks the tracks that finished in one step. Returns the groups whose
  /// last live member was among them, in ascending group index — the order
  /// their releases fire in.
  [[nodiscard]] std::vector<std::size_t> retire(
      const std::vector<std::size_t>& tracks);

  /// The release event of a group retire() reported.
  [[nodiscard]] SlotRelease release(std::size_t group) const;

  /// Admits `reqs` as a new group over `span`, one track each, numbered
  /// after every existing track. Throws, changing nothing, when the cohort
  /// or a request is empty, when the cohort overflows the span, or when a
  /// group on the span's (row, slot) is still live. Returns the new group's
  /// index.
  std::size_t splice(SlotSpan span, const std::vector<Request>& reqs);

 private:
  struct Group {
    SlotSpan span;
    std::vector<std::size_t> members;
    Index live = 0;  ///< members not yet finished
  };

  bool per_slot_ = false;
  std::vector<SlotSpan> spans_;
  std::vector<bool> formed_;             ///< per span
  std::vector<Group> groups_;
  std::vector<std::size_t> group_of_;    ///< per track
  std::vector<RequestId> requests_;      ///< per track
};

/// Aggregate occupancy/lifetime counters (a point-in-time snapshot).
struct SlotAllocatorStats {
  Index total_slots = 0;
  Index occupied_slots = 0;
  /// Lifetime occupied -> vacant transitions (slot releases).
  std::size_t releases = 0;
  /// Lifetime vacant -> occupied transitions (splice admissions).
  std::size_t acquires = 0;
};

/// Free-list allocator over the fixed slot grid of one formed batch.
///
/// Slots holding at least one segment start occupied; slots the batcher left
/// empty (a slotted row with unfilled slots) start vacant and are available
/// for splicing from the first iteration.
class SlotAllocator {
 public:
  explicit SlotAllocator(const BatchPlan& plan);

  /// Slot-grid size; fixed at construction.
  [[nodiscard]] Index total_slots() const noexcept {
    return stats_.total_slots;
  }

  /// Marks (row, slot) vacant and appends it to the free list. Returns false
  /// (and changes nothing) if the slot was already vacant — release events
  /// are idempotent per occupancy period.
  bool release(Row row, Slot slot);

  /// Marks (row, slot) occupied and removes it from the free list, returning
  /// its span. Returns false if the slot is not currently vacant.
  bool acquire(Row row, Slot slot);

  /// Snapshot of the vacant spans in free-list (release) order — the order
  /// the coordinator offers slots to the scheduler.
  [[nodiscard]] std::vector<SlotSpan> vacant() const;

  /// Widest span in the grid (occupied or not) — the largest request this
  /// batch's frozen geometry could ever admit. The coordinator compares it
  /// against the pending mix to decide when a live batch's geometry has
  /// drifted too far from the arrivals to keep splicing (0 for an empty
  /// grid).
  [[nodiscard]] Index max_span_width() const;

  [[nodiscard]] SlotAllocatorStats stats() const;

  /// occupied / total, in [0, 1]; 1.0 for an empty grid (nothing to fill).
  [[nodiscard]] double occupied_fraction() const;

 private:
  struct Entry {
    SlotSpan span;
    bool occupied = false;
  };

  /// Index into entries_ for (row, slot), or entries_.size() if unknown.
  [[nodiscard]] std::size_t find(Row row, Slot slot) const;

  std::vector<Entry> entries_;
  /// Vacant entries, oldest release first.
  std::vector<std::size_t> free_list_;
  SlotAllocatorStats stats_;
};

}  // namespace tcb
