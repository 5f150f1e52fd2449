// The three readers of a plan's slot geometry must agree: the slot grid
// SlotAllocator builds, and the release events the analytical and the engine
// stepped executions emit. The continuous pipeline hands every SlotRelease
// straight to batch.slots->release(rel.row, rel.slot), so a release naming a
// span the allocator does not list — or a group released twice — would
// corrupt the free list that drives every splice decision.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "batching/factory.hpp"
#include "batching/packed_batch.hpp"
#include "batching/slot_allocator.hpp"
#include "serving/backend.hpp"
#include "util/rng.hpp"

namespace tcb {
namespace {

constexpr Index kSlotLen = 8;
constexpr Index kCapacity = 24;

Request make_request(RequestId id, Index length, Rng& rng) {
  Request req;
  req.id = id;
  req.length = length;
  for (Index i = 0; i < length; ++i)
    req.tokens.push_back(
        rng.uniform_int(kFirstWordToken, ModelConfig::test_scale().vocab_size - 1));
  return req;
}

struct Case {
  std::string name;
  BatchWork work;
};

BatchWork from_batcher(Scheme scheme, const std::vector<Index>& lengths,
                       Rng& rng) {
  std::vector<Request> reqs;
  for (std::size_t i = 0; i < lengths.size(); ++i)
    reqs.push_back(make_request(static_cast<RequestId>(i), lengths[i], rng));
  BatchBuildResult built =
      build_with_scheme(scheme, reqs, Row{3}, Col{kCapacity},
                        scheme == Scheme::kConcatSlotted ? kSlotLen : 0);
  built.plan.validate();
  BatchWork work;
  work.plan = std::move(built.plan);
  // Turbo executes one length group and leaves the rest over.
  std::set<RequestId> placed;
  for (const RowLayout& row : work.plan.rows)
    for (const Segment& seg : row.segments) placed.insert(seg.request_id);
  for (Request& req : reqs)
    if (placed.count(req.id) != 0) work.requests.push_back(std::move(req));
  return work;
}

/// Slotted row 0 is 20 columns wide with z = 8: slot 0 holds two requests,
/// slot 1 is vacant, and slot 2 is clipped to 4 columns. Row 1 fills two
/// full slots.
BatchWork hand_slotted(Rng& rng) {
  BatchWork work;
  BatchPlan& plan = work.plan;
  plan.scheme = Scheme::kConcatSlotted;
  plan.slot_len = kSlotLen;
  plan.row_capacity = kCapacity;
  RowLayout row0;
  row0.width = 20;
  row0.segments = {Segment{0, 0, 5, 0}, Segment{1, 5, 3, 0},
                   Segment{2, 16, 3, 2}};
  RowLayout row1;
  row1.width = 16;
  row1.segments = {Segment{3, 0, 7, 0}, Segment{4, 8, 6, 1}};
  plan.rows = {row0, row1};
  plan.validate();
  for (const RowLayout& row : plan.rows)
    for (const Segment& seg : row.segments)
      work.requests.push_back(make_request(seg.request_id, seg.length, rng));
  return work;
}

std::vector<Case> cases() {
  Rng rng(7);
  std::vector<Case> out;
  const std::vector<Index> lengths = {5, 3, 7, 2, 6, 4, 8, 1};
  out.push_back({"naive", from_batcher(Scheme::kNaive, {5, 3, 7}, rng)});
  out.push_back({"turbo", from_batcher(Scheme::kTurbo, lengths, rng)});
  out.push_back({"pure", from_batcher(Scheme::kConcatPure, lengths, rng)});
  out.push_back(
      {"slotted", from_batcher(Scheme::kConcatSlotted, lengths, rng)});
  out.push_back({"slotted-clipped-vacant", hand_slotted(rng)});
  return out;
}

/// Releases `rel` into `alloc` as the pipeline does, and checks the
/// allocator lists the released span with the same geometry. release()
/// throws on a slot outside the grid and returns false for one already
/// vacant: a second release of the same group.
void release_listed(SlotAllocator& alloc, const SlotRelease& rel) {
  ASSERT_TRUE(alloc.release(rel.row, rel.slot));
  const SlotSpan listed = alloc.vacant().back();
  EXPECT_EQ(listed.row, rel.row);
  EXPECT_EQ(listed.slot, rel.slot);
  EXPECT_EQ(listed.begin, rel.begin);
  EXPECT_EQ(listed.width, rel.width);
}

/// Both stepped executions of one batch, configured consistently with its
/// scheme: slotted attention for slotted plans, decode lengths capped at the
/// source length so tracks finish at different steps.
class SlotGeometryTest : public ::testing::Test {
 protected:
  SlotGeometryTest()
      : model_(std::make_shared<const Seq2SeqModel>(ModelConfig::test_scale())),
        clock_(ModelConfig::test_scale(), HardwareProfile::v100_like()) {}

  std::unique_ptr<SteppedExecution> begin(const BatchWork& work,
                                          bool engine) {
    if (!engine) return AnalyticalBackend(clock_).begin_stepped(work);
    InferenceOptions opts;
    opts.mode = work.plan.scheme == Scheme::kConcatSlotted
                    ? AttentionMode::kSlotted
                    : AttentionMode::kPureConcat;
    opts.max_decode_steps = 10;
    opts.cap_decode_at_source_length = true;
    opts.early_memory_cleaning = true;
    return EngineBackend(model_, clock_, opts).begin_stepped(work);
  }

  std::shared_ptr<const Seq2SeqModel> model_;
  AnalyticalCostModel clock_;
};

TEST_F(SlotGeometryTest, ReleasesNameAllocatorSpansOncePerGroupInOrder) {
  for (const Case& c : cases()) {
    for (const bool engine : {false, true}) {
      SCOPED_TRACE(c.name + (engine ? " engine" : " analytical"));
      const auto exec = begin(c.work, engine);
      ASSERT_NE(exec, nullptr);
      SlotAllocator alloc(c.work.plan);
      const Index formed = alloc.stats().occupied_slots;
      ASSERT_GT(formed, 0);

      std::set<RequestId> finished;
      Index releases = 0;
      while (!exec->done()) {
        const SteppedExecution::StepResult step = exec->step();
        for (std::size_t i = 1; i < step.released.size(); ++i) {
          const SlotRelease& a = step.released[i - 1];
          const SlotRelease& b = step.released[i];
          EXPECT_TRUE(a.row < b.row || (a.row == b.row && a.slot < b.slot))
              << "releases out of (row, slot) order";
        }
        for (const SlotRelease& rel : step.released) {
          release_listed(alloc, rel);
          finished.insert(rel.finished.begin(), rel.finished.end());
          releases += 1;
        }
      }
      EXPECT_EQ(releases, formed);
      EXPECT_EQ(alloc.stats().occupied_slots, 0);
      EXPECT_EQ(finished.size(), c.work.requests.size());
    }
  }
}

TEST_F(SlotGeometryTest, SplicedGroupsReleaseTheSpanTheyWereGiven) {
  Rng rng(11);
  for (const Case& c : cases()) {
    for (const bool engine : {false, true}) {
      SCOPED_TRACE(c.name + (engine ? " engine" : " analytical"));
      const auto exec = begin(c.work, engine);
      SlotAllocator alloc(c.work.plan);
      RequestId next_id = 100;
      std::size_t spliced = 0;
      std::set<RequestId> finished;
      while (!exec->done()) {
        const SteppedExecution::StepResult step = exec->step();
        for (const SlotRelease& rel : step.released) {
          release_listed(alloc, rel);
          finished.insert(rel.finished.begin(), rel.finished.end());
        }
        // Refill every vacant span with one short request, as the pipeline
        // would, for the first few splices.
        for (const SlotSpan& span : alloc.vacant()) {
          if (spliced == 4) break;
          ASSERT_TRUE(alloc.acquire(span.row, span.slot));
          std::vector<Request> reqs = {
              make_request(next_id++, std::min<Index>(span.width, 3), rng)};
          (void)exec->splice(span.row, span.slot, span.begin, span.width,
                             std::move(reqs));
          spliced += 1;
        }
      }
      EXPECT_EQ(spliced, 4u);
      EXPECT_EQ(alloc.stats().occupied_slots, 0);
      EXPECT_EQ(finished.size(), c.work.requests.size() + spliced);
    }
  }
}

TEST_F(SlotGeometryTest, SplicingIntoALiveSpanThrows) {
  Rng rng(13);
  for (const Case& c : cases()) {
    for (const bool engine : {false, true}) {
      SCOPED_TRACE(c.name + (engine ? " engine" : " analytical"));
      const auto exec = begin(c.work, engine);
      const RowLayout& row = c.work.plan.rows.front();
      const Index width = c.work.plan.scheme == Scheme::kConcatSlotted
                              ? kSlotLen
                              : row.width;
      std::vector<Request> reqs = {make_request(100, 1, rng)};
      try {
        (void)exec->splice(Row{0}, Slot{0}, Col{0}, width, std::move(reqs));
        ADD_FAILURE() << "splice into a live span did not throw";
      } catch (const std::exception& e) {
        EXPECT_NE(std::string(e.what()).find("live decode tracks"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

}  // namespace
}  // namespace tcb
