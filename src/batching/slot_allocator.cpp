#include "batching/slot_allocator.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace tcb {

SlotGroupTable::SlotGroupTable(const BatchPlan& plan, bool per_slot)
    : per_slot_(per_slot) {
  TCB_CHECK(!per_slot || plan.slot_len > 0,
            "SlotGroupTable: per-slot groups need a slot length");
  const Index z = plan.slot_len;
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> group_at;  // per span: its formation group
  for (std::size_t r = 0; r < plan.rows.size(); ++r) {
    const RowLayout& row = plan.rows[r];
    const std::size_t first_span = spans_.size();
    const Index slot_count =
        row.width <= 0 ? 0 : per_slot ? (row.width + z - 1) / z : 1;
    for (Index s = 0; s < slot_count; ++s) {
      SlotSpan span;
      span.row = Row{static_cast<Index>(r)};
      span.slot = Slot{s};
      span.begin = Col{per_slot ? s * z : 0};
      span.width = per_slot ? std::min(z, row.width - s * z) : row.width;
      spans_.push_back(span);
    }
    group_at.resize(spans_.size(), kNone);
    for (const Segment& seg : row.segments) {
      const std::size_t i =
          first_span + (per_slot ? seg.slot_index().usize() : 0);
      TCB_CHECK(i < spans_.size(), "SlotGroupTable: segment outside the grid");
      if (group_at[i] == kNone) {
        group_at[i] = groups_.size();
        groups_.push_back(Group{spans_[i], {}, 0});
      }
      Group& group = groups_[group_at[i]];
      group.members.push_back(group_of_.size());
      group.live += 1;
      group_of_.push_back(group_at[i]);
      requests_.push_back(seg.request_id);
    }
  }
  formed_.reserve(spans_.size());
  for (const auto g : group_at) formed_.push_back(g != kNone);
}

std::vector<std::size_t> SlotGroupTable::retire(
    const std::vector<std::size_t>& tracks) {
  std::vector<std::size_t> completed;
  for (const auto t : tracks) {
    Group& group = groups_[group_of_[t]];
    TCB_CHECK(group.live > 0, "SlotGroupTable::retire: track retired twice");
    group.live -= 1;
    if (group.live == 0) completed.push_back(group_of_[t]);
  }
  std::sort(completed.begin(), completed.end());
  return completed;
}

SlotRelease SlotGroupTable::release(std::size_t group) const {
  const Group& g = groups_[group];
  SlotRelease rel;
  rel.row = g.span.row;
  rel.slot = g.span.slot;
  rel.begin = g.span.begin;
  rel.width = g.span.width;
  for (const auto m : g.members) rel.finished.push_back(requests_[m]);
  return rel;
}

std::size_t SlotGroupTable::splice(SlotSpan span,
                                   const std::vector<Request>& reqs) {
  TCB_CHECK(!reqs.empty(), "splice: empty request list");
  Index total_len = 0;
  for (const auto& req : reqs) {
    TCB_CHECK(req.length > 0, "splice: request must have tokens");
    total_len += req.length;
  }
  TCB_CHECK(total_len <= span.width, "splice: requests overflow the slot span");
  if (!per_slot_) span.slot = Slot{0};
  for (const Group& g : groups_)
    TCB_CHECK(g.live == 0 || g.span.row != span.row || g.span.slot != span.slot,
              "splice: slot still has live decode tracks");
  Group group{span, {}, static_cast<Index>(reqs.size())};
  for (const auto& req : reqs) {
    group.members.push_back(group_of_.size());
    group_of_.push_back(groups_.size());
    requests_.push_back(req.id);
  }
  groups_.push_back(std::move(group));
  return groups_.size() - 1;
}

SlotAllocator::SlotAllocator(const BatchPlan& plan) {
  const SlotGroupTable groups(
      plan, plan.scheme == Scheme::kConcatSlotted && plan.slot_len > 0);
  for (std::size_t i = 0; i < groups.spans().size(); ++i) {
    if (!groups.formed(i)) free_list_.push_back(entries_.size());
    entries_.push_back(Entry{groups.spans()[i], groups.formed(i)});
  }
  stats_.total_slots = static_cast<Index>(entries_.size());
  stats_.occupied_slots = static_cast<Index>(
      std::count_if(entries_.begin(), entries_.end(),
                    [](const Entry& e) { return e.occupied; }));
}

std::size_t SlotAllocator::find(Row row, Slot slot) const {
  for (std::size_t i = 0; i < entries_.size(); ++i)
    if (entries_[i].span.row == row && entries_[i].span.slot == slot) return i;
  return entries_.size();
}

bool SlotAllocator::release(Row row, Slot slot) {
  const std::size_t i = find(row, slot);
  TCB_CHECK(i < entries_.size(), "SlotAllocator::release: unknown slot");
  if (!entries_[i].occupied) return false;
  entries_[i].occupied = false;
  free_list_.push_back(i);
  stats_.occupied_slots -= 1;
  stats_.releases += 1;
  return true;
}

bool SlotAllocator::acquire(Row row, Slot slot) {
  const std::size_t i = find(row, slot);
  TCB_CHECK(i < entries_.size(), "SlotAllocator::acquire: unknown slot");
  if (entries_[i].occupied) return false;
  entries_[i].occupied = true;
  free_list_.erase(std::remove(free_list_.begin(), free_list_.end(), i),
                   free_list_.end());
  stats_.occupied_slots += 1;
  stats_.acquires += 1;
  return true;
}

std::vector<SlotSpan> SlotAllocator::vacant() const {
  std::vector<SlotSpan> out;
  out.reserve(free_list_.size());
  for (const auto i : free_list_) out.push_back(entries_[i].span);
  return out;
}

Index SlotAllocator::max_span_width() const {
  Index widest = 0;
  for (const auto& e : entries_) widest = std::max(widest, e.span.width);
  return widest;
}

SlotAllocatorStats SlotAllocator::stats() const {
  return stats_;
}

double SlotAllocator::occupied_fraction() const {
  if (entries_.empty()) return 1.0;
  return static_cast<double>(stats_.occupied_slots) /
         static_cast<double>(entries_.size());
}

}  // namespace tcb
