// Tests of the per-thread Workspace arena (tensor/workspace.hpp): scope
// discipline, alignment, chunk growth, and — the property the whole design
// exists for — zero heap allocations in the steady-state forward path once
// the arenas and thread_local activation tensors are warm.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "batching/concat_batcher.hpp"
#include "batching/packed_batch.hpp"
#include "nn/attention.hpp"
#include "nn/model.hpp"
#include "tensor/ops.hpp"
#include "tensor/workspace.hpp"

namespace tcb {
namespace {

TEST(WorkspaceTest, ScopesRewindLifo) {
  Workspace& ws = Workspace::this_thread();
  WorkspaceScope outer(ws);
  float* a = outer.alloc(100);
  a[0] = 1.0f;
  a[99] = 2.0f;
  {
    WorkspaceScope inner(ws);
    float* b = inner.alloc(50);
    ASSERT_NE(b, nullptr);
    // The inner allocation comes after the outer one in the bump order.
    b[0] = 3.0f;
  }
  // After the inner scope rewinds, the next allocation reuses its space.
  WorkspaceScope again(ws);
  float* c = again.alloc(50);
  EXPECT_EQ(c[0], 3.0f);  // same storage, untouched by the rewind
  // Outer allocations survive inner scopes.
  EXPECT_EQ(a[0], 1.0f);
  EXPECT_EQ(a[99], 2.0f);
}

TEST(WorkspaceTest, AllocationsAre64ByteAligned) {
  WorkspaceScope scope;
  for (const std::size_t n : {1u, 3u, 17u, 100u, 1000u}) {
    float* p = scope.alloc(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u) << "n=" << n;
  }
}

TEST(WorkspaceTest, WarmedArenaStopsAllocatingChunks) {
  // Two passes of identical allocation traffic: the first may grow chunks,
  // the second must be served entirely from existing storage.
  const auto pass = [] {
    WorkspaceScope scope;
    (void)scope.alloc(10000);
    for (int i = 0; i < 20; ++i) {
      WorkspaceScope inner;
      (void)inner.alloc(50000);
      (void)inner.alloc(123);
    }
  };
  pass();
  const std::uint64_t warmed = Workspace::total_chunk_allocs();
  for (int i = 0; i < 3; ++i) pass();
  EXPECT_EQ(Workspace::total_chunk_allocs(), warmed);
  EXPECT_GT(Workspace::total_reserved_bytes(), 0u);
}

TEST(WorkspaceTest, OverflowChunkIsReusedAcrossPasses) {
  // Each pass overflows the first chunk (10 000 floats fit, 100 000 more do
  // not), so the second allocation lands in the chunk after it. Later passes
  // must find that chunk in place instead of inserting a fresh one.
  Workspace& ws = Workspace::this_thread();
  const auto pass = [&ws] {
    WorkspaceScope scope(ws);
    (void)scope.alloc(10000);
    for (int i = 0; i < 4; ++i) {
      WorkspaceScope inner(ws);
      (void)inner.alloc(10000);
      (void)inner.alloc(100000);
    }
  };
  pass();
  const std::uint64_t allocs = Workspace::total_chunk_allocs();
  const std::size_t reserved = ws.stats().reserved_bytes;
  for (int i = 0; i < 5; ++i) pass();
  EXPECT_EQ(Workspace::total_chunk_allocs(), allocs);
  EXPECT_EQ(ws.stats().reserved_bytes, reserved);
}

TEST(WorkspaceTest, StatsTrackHighWater) {
  Workspace& ws = Workspace::this_thread();
  const auto before = ws.stats();
  {
    WorkspaceScope scope(ws);
    (void)scope.alloc(200000);
  }
  const auto after = ws.stats();
  EXPECT_GE(after.high_water_bytes, 200000 * sizeof(float));
  EXPECT_GE(after.reserved_bytes, before.reserved_bytes);
}

TEST(WorkspaceTest, SteadyStateForwardPathIsHeapAllocationFree) {
  // The acceptance property of the arena redesign: after warm-up, repeated
  // encoder attention forwards (which drive the blocked GEMMs, the flash
  // attention tiles, and the projection scratch) must not grow any thread's
  // arena. Tensor-level activation returns still allocate — the claim is
  // scoped to kernel scratch, which this counter measures exactly.
  ModelConfig cfg;
  cfg.d_model = 64;
  cfg.n_heads = 4;
  cfg.d_ff = 128;
  Rng rng(7);
  const MultiHeadAttention mha(cfg, rng);

  const Index width = 192;
  BatchPlan plan;
  plan.row_capacity = width;
  plan.scheme = Scheme::kConcatPure;
  RowLayout row;
  row.segments.push_back(Segment{0, 0, 100, 0});
  row.segments.push_back(Segment{1, 100, 60, 0});
  row.width = 160;
  plan.rows.push_back(row);
  plan.validate();
  const Tensor x = Tensor::random_uniform(Shape{width, cfg.d_model}, rng, 1.0f);

  // Warm-up: grows the calling thread's arena to its steady footprint and
  // shapes the thread_local activation tensors.
  for (int i = 0; i < 3; ++i)
    (void)mha.encoder_forward(x, plan, Col{width}, AttentionMode::kPureConcat);

  const std::uint64_t warmed = Workspace::total_chunk_allocs();
  for (int i = 0; i < 5; ++i)
    (void)mha.encoder_forward(x, plan, Col{width}, AttentionMode::kPureConcat);
  EXPECT_EQ(Workspace::total_chunk_allocs(), warmed)
      << "steady-state forward grew a workspace arena";
}

TEST(WorkspaceTest, DecodeScratchComesFromTheCallingThread) {
  // Decoder attention scratch is carved from the calling thread's arena
  // before each fan-out, so once that arena is big enough no decode grows
  // any arena — not even on a pool worker that sat out earlier decodes.
  // tests/CMakeLists.txt runs this again under TCB_THREADS=4.
  const ModelConfig cfg = ModelConfig::test_scale();
  const Seq2SeqModel model(cfg);
  Rng rng(11);
  std::vector<Request> reqs;
  for (RequestId id = 0; id < 6; ++id) {
    Request r;
    r.id = id;
    r.length = 3 + id % 3;
    for (Index t = 0; t < r.length; ++t)
      r.tokens.push_back(rng.uniform_int(kFirstWordToken, cfg.vocab_size - 1));
    reqs.push_back(std::move(r));
  }
  const auto built = ConcatBatcher().build(reqs, Row{2}, Col{16});
  const EncoderMemory memory =
      model.encode(pack_batch(built.plan, reqs), InferenceOptions{});
  DecodeOptions opts;
  opts.max_steps = 8;

  {
    WorkspaceScope grow;  // far beyond what this decode needs
    (void)grow.alloc(std::size_t{1} << 20);
  }
  const std::uint64_t grown = Workspace::total_chunk_allocs();
  const DecodeResult first = greedy_decode(model, memory, opts);
  const DecodeResult second = greedy_decode(model, memory, opts);
  EXPECT_EQ(Workspace::total_chunk_allocs(), grown)
      << "a decode grew a workspace arena";
  EXPECT_EQ(second.outputs, first.outputs);
}

}  // namespace
}  // namespace tcb
