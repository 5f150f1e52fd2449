#include "batching/batch_plan.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/check.hpp"

namespace tcb {

const char* scheme_name(Scheme scheme) noexcept {
  switch (scheme) {
    case Scheme::kNaive:
      return "naive";
    case Scheme::kTurbo:
      return "turbo";
    case Scheme::kConcatPure:
      return "concat-pure";
    case Scheme::kConcatSlotted:
      return "concat-slotted";
  }
  return "unknown";
}

Index RowLayout::used_tokens() const noexcept {
  Index total = 0;
  for (const auto& seg : segments) total += seg.length;
  return total;
}

bool BatchPlan::empty() const noexcept {
  for (const auto& row : rows)
    if (!row.segments.empty()) return false;
  return true;
}

Index BatchPlan::request_count() const noexcept {
  Index n = 0;
  for (const auto& row : rows) n += static_cast<Index>(row.segments.size());
  return n;
}

Index BatchPlan::used_tokens() const noexcept {
  Index total = 0;
  for (const auto& row : rows) total += row.used_tokens();
  return total;
}

Index BatchPlan::padded_tokens() const noexcept {
  Index total = 0;
  for (const auto& row : rows) total += row.padded_tokens();
  return total;
}

Index BatchPlan::max_width() const noexcept {
  Index w = 0;
  for (const auto& row : rows) w = std::max(w, row.width);
  return w;
}

std::vector<RequestId> BatchPlan::request_ids() const {
  std::vector<RequestId> ids;
  ids.reserve(static_cast<std::size_t>(request_count()));
  for (const auto& row : rows)
    for (const auto& seg : row.segments) ids.push_back(seg.request_id);
  return ids;
}

std::string BatchPlan::summary() const {
  std::string out = scheme_name(scheme);
  out += " rows=" + std::to_string(rows.size());
  out += " L=" + std::to_string(row_capacity);
  if (slot_len > 0) out += " z=" + std::to_string(slot_len);
  out += " requests=" + std::to_string(request_count());
  out += " used=" + std::to_string(used_tokens());
  out += " padded=" + std::to_string(padded_tokens());
  return out;
}

void BatchPlan::validate() const {
  auto fail = [](const std::string& what) { throw std::logic_error("BatchPlan: " + what); };
  if (row_capacity <= 0) fail("row_capacity must be positive");
  if (slot_len < 0) fail("negative slot_len");
  if (slot_len > row_capacity) fail("slot_len exceeds row_capacity");
  if ((scheme == Scheme::kConcatSlotted) != (slot_len > 0))
    fail("slot_len must be set exactly for the slotted scheme");
  for (const auto& row : rows) {
    if (row.width < 0 || row.width > row_capacity)
      fail("row width out of [0, L]");
    Index cursor = 0;
    for (const auto& seg : row.segments) {
      if (seg.length <= 0) fail("empty segment");
      if (seg.offset < cursor) fail("segments overlap or are unsorted");
      if (seg.offset + seg.length > row.width) fail("segment exceeds row width");
      if (slot_len > 0) {
        if (seg.slot != seg.offset / slot_len) fail("segment slot index wrong");
        const Index slot_begin = seg.slot * slot_len;
        const Index slot_end = std::min(slot_begin + slot_len, row.width);
        if (seg.offset < slot_begin || seg.offset + seg.length > slot_end)
          fail("segment straddles a slot boundary");
      } else if (seg.slot != 0) {
        fail("non-zero slot index in unslotted plan");
      }
      cursor = seg.offset + seg.length;
    }
    if ((scheme == Scheme::kNaive || scheme == Scheme::kTurbo) &&
        row.segments.size() > 1)
      fail("naive/turbo rows hold at most one request");
  }
}

SegmentCache::SegmentCache(const BatchPlan& plan, Col width)
    : width_(width.value()), rows_(static_cast<Index>(plan.rows.size())) {
  const std::size_t total =
      static_cast<std::size_t>(rows_) * static_cast<std::size_t>(width_);
  seg_.assign(total, -1);
  span_lo_.assign(total, 0);
  span_hi_.assign(total, 0);
  used_spans_.resize(static_cast<std::size_t>(rows_));
  for (Index r = 0; r < rows_; ++r) {
    const RowLayout& row = plan.rows[static_cast<std::size_t>(r)];
    TCB_CHECK(row.width <= width_,
              "SegmentCache: row wider than the materialized width");
    const std::size_t base =
        static_cast<std::size_t>(r) * static_cast<std::size_t>(width_);
    auto& spans = used_spans_[static_cast<std::size_t>(r)];
    for (std::size_t s = 0; s < row.segments.size(); ++s) {
      const Segment& seg = row.segments[s];
      TCB_DCHECK(seg.offset >= 0 && seg.length > 0 &&
                     seg.offset + seg.length <= row.width,
                 "SegmentCache: segment outside its row");
      const Index lo = seg.begin_col().value();
      const Index hi = seg.end_col().value();
      for (Index p = lo; p < hi; ++p) {
        const std::size_t at = base + static_cast<std::size_t>(p);
        TCB_DCHECK(seg_[at] == -1, "SegmentCache: overlapping segments");
        seg_[at] = static_cast<std::int32_t>(s);
        span_lo_[at] = lo;
        span_hi_[at] = hi;
      }
      // Merge with the previous span when the segments touch: under the
      // row-shared mask the attendable set is "any non-padding column", so
      // adjacency, not segment identity, defines the span.
      if (!spans.empty() && spans.back().second == lo)
        spans.back().second = hi;
      else
        spans.emplace_back(lo, hi);
    }
  }
}

SegmentCache BatchPlan::segment_cache(Col width) const {
  return SegmentCache(*this, width);
}

std::vector<std::int32_t> segment_map(const RowLayout& row) {
  std::vector<std::int32_t> map(static_cast<std::size_t>(row.width), -1);
  for (std::size_t s = 0; s < row.segments.size(); ++s) {
    const auto& seg = row.segments[s];
    TCB_DCHECK(seg.offset >= 0 && seg.length > 0 &&
                   seg.offset + seg.length <= row.width,
               "segment_map: segment outside its row");
    for (Index p = seg.offset; p < seg.offset + seg.length; ++p) {
      TCB_DCHECK(map[static_cast<std::size_t>(p)] == -1,
                 "segment_map: overlapping segments at position " +
                     std::to_string(p));
      map[static_cast<std::size_t>(p)] = static_cast<std::int32_t>(s);
    }
  }
  return map;
}

}  // namespace tcb
