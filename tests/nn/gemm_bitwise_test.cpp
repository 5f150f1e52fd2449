// Bitwise row invariance of the GEMM driver, the property concat batching
// rests on: an output row's bits depend only on that input row and the
// weights, never on how many rows share the call, on how k is blocked, or on
// the thread count. The depths cross the 256-deep kc block (257, 512, 2048),
// where a per-block partial-sum scheme would give batched and single rows
// different chains. ctest also runs these suites with TCB_THREADS=1 and 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "batching/concat_batcher.hpp"
#include "batching/packed_batch.hpp"
#include "nn/linear.hpp"
#include "nn/model.hpp"
#include "tensor/ops.hpp"
#include "workload/trace.hpp"

namespace tcb {
namespace {

constexpr Index kRowCounts[] = {1, 3, 8, 15, 16, 33, 64};
constexpr Index kDepths[] = {128, 257, 512, 2048};
/// Three full 32-wide panels plus a partial one.
constexpr Index kOut = 100;

/// Rows [0, m) of x.
Tensor head_rows(const Tensor& x, Index m) {
  Tensor h(Shape{m, x.dim(1)});
  std::copy_n(x.raw(), m * x.dim(1), h.raw());
  return h;
}

/// True when the first `rows` rows of a and b hold the same bits.
bool same_row_bits(const Tensor& a, const Tensor& b, Index rows) {
  if (a.dim(1) != b.dim(1) || a.dim(0) < rows || b.dim(0) < rows) return false;
  return std::memcmp(a.raw(), b.raw(),
                     static_cast<std::size_t>(rows * a.dim(1)) *
                         sizeof(float)) == 0;
}

TEST(GemmBitwise, LinearRowsIgnoreBatchRows) {
  for (const Index k : kDepths) {
    Rng rng(static_cast<std::uint64_t>(k));
    const Linear lin(k, kOut, rng);
    const Tensor x = Tensor::random_uniform(Shape{64, k}, rng, 1.0f);
    const Tensor full = lin.forward(x);
    for (const Index m : kRowCounts)
      EXPECT_TRUE(same_row_bits(lin.forward(head_rows(x, m)), full, m))
          << "k=" << k << " m=" << m;
  }
}

TEST(GemmBitwise, MatmulRowsIgnoreBatchRows) {
  for (const Index k : kDepths) {
    Rng rng(static_cast<std::uint64_t>(k) + 1);
    const Tensor w = Tensor::random_uniform(Shape{k, kOut}, rng, 1.0f);
    const Tensor wt = Tensor::random_uniform(Shape{kOut, k}, rng, 1.0f);
    const Tensor x = Tensor::random_uniform(Shape{64, k}, rng, 1.0f);
    const Tensor full = matmul(x, w);
    const Tensor full_nt = matmul_nt(x, wt);
    for (const Index m : kRowCounts) {
      const Tensor xm = head_rows(x, m);
      EXPECT_TRUE(same_row_bits(matmul(xm, w), full, m))
          << "matmul k=" << k << " m=" << m;
      EXPECT_TRUE(same_row_bits(matmul_nt(xm, wt), full_nt, m))
          << "matmul_nt k=" << k << " m=" << m;
    }
  }
}

TEST(GemmBitwise, EveryElementIsOneAscendingFmaChain) {
  // The contract itself: c[i][j] = fma(a[i][k-1], b[k-1][j], ...
  // fma(a[i][0], b[0][j], 0.0f)), for the packed and the unpacked operand.
  for (const Index k : kDepths) {
    Rng rng(static_cast<std::uint64_t>(k) + 2);
    const PackedMatrix packed = PackedMatrix::random_uniform(k, kOut, rng, 1.0f);
    const Tensor w = packed.unpack();
    const Tensor x = Tensor::random_uniform(Shape{5, k}, rng, 1.0f);
    Tensor expected(Shape{5, kOut});
    for (Index i = 0; i < 5; ++i)
      for (Index j = 0; j < kOut; ++j) {
        float acc = 0.0f;
        for (Index p = 0; p < k; ++p) acc = std::fma(x.at(i, p), w.at(p, j), acc);
        expected.at(i, j) = acc;
      }
    Tensor from_packed;
    matmul(x, packed, from_packed);
    EXPECT_TRUE(same_row_bits(from_packed, expected, 5)) << "packed k=" << k;
    EXPECT_TRUE(same_row_bits(matmul(x, w), expected, 5)) << "matmul k=" << k;
  }
}

TEST(GemmBitwise, EdgeShapeAcrossKcBlocksIsOneChain) {
  // A partial row panel (13 rows), a partial column panel (100 columns) and
  // kc blocks of 256 + 256 + 88, so the second and third blocks continue the
  // chain from C: the packed weight, plain B and transposed B all reproduce
  // the explicit chain.
  const Index m = 13, k = 600, n = kOut;
  Rng rng(77);
  const PackedMatrix packed = PackedMatrix::random_uniform(k, n, rng, 1.0f);
  const Tensor b = packed.unpack();
  const Tensor a = Tensor::random_uniform(Shape{m, k}, rng, 1.0f);
  Tensor bt(Shape{n, k});
  Tensor expected(Shape{m, n});
  for (Index i = 0; i < m; ++i)
    for (Index j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (Index p = 0; p < k; ++p) acc = std::fma(a.at(i, p), b.at(p, j), acc);
      expected.at(i, j) = acc;
    }
  for (Index p = 0; p < k; ++p)
    for (Index j = 0; j < n; ++j) bt.at(j, p) = b.at(p, j);

  Tensor from_packed;
  matmul(a, packed, from_packed);
  EXPECT_TRUE(same_row_bits(from_packed, expected, m)) << "packed";
  EXPECT_TRUE(same_row_bits(matmul(a, b), expected, m)) << "matmul";
  EXPECT_TRUE(same_row_bits(matmul_nt(a, bt), expected, m)) << "matmul_nt";
}

TEST(GemmBitwise, PackedWeightsMatchRowMajorDraws) {
  // Packing straight from the RNG keeps today's draw order, so a Linear's
  // weights are the values a row-major random_uniform tensor holds.
  Rng a(41), b(41);
  const Linear lin(70, kOut, a);
  const Tensor w = Tensor::random_uniform(Shape{70, kOut}, b,
                                          1.0f / std::sqrt(70.0f));
  EXPECT_EQ(max_abs_diff(lin.weight(), w), 0.0f);
  EXPECT_EQ(lin.in_features(), 70);
  EXPECT_EQ(lin.out_features(), kOut);
}

std::vector<Request> make_requests(std::size_t count, const ModelConfig& cfg,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Request> reqs;
  for (std::size_t i = 0; i < count; ++i) {
    Request r;
    r.id = static_cast<RequestId>(i);
    r.length = rng.uniform_int(3, 20);
    for (Index t = 0; t < r.length; ++t)
      r.tokens.push_back(rng.uniform_int(kFirstWordToken, cfg.vocab_size - 1));
    reqs.push_back(std::move(r));
  }
  return reqs;
}

PackedBatch alone(const Request& req) {
  BatchPlan plan;
  plan.scheme = Scheme::kConcatPure;
  plan.row_capacity = req.length;
  RowLayout row;
  row.width = req.length;
  row.segments.push_back(Segment{req.id, 0, req.length, 0});
  plan.rows.push_back(row);
  return pack_batch(plan, {req});
}

TEST(DeepKEquivalence, WideFeedForwardIsConcatInvariant) {
  // d_ff 1040 makes the FFN's second GEMM span five 256-deep kc blocks;
  // the test-scale configs (d_ff 64) never get past one.
  ModelConfig cfg = ModelConfig::test_scale();
  cfg.d_model = 64;
  cfg.d_ff = 1040;
  const Seq2SeqModel model(cfg);
  const auto reqs = make_requests(6, cfg, 53);
  const ConcatBatcher batcher;
  const auto built = batcher.build(reqs, Row{2}, Col{64});
  ASSERT_TRUE(built.leftover.empty());
  const PackedBatch packed = pack_batch(built.plan, reqs);

  InferenceOptions opts;
  opts.max_decode_steps = 8;
  const EncoderMemory batched = model.encode(packed, opts);
  const auto batched_tokens = model.infer(packed, opts);

  for (std::size_t r = 0; r < packed.plan.rows.size(); ++r) {
    for (const auto& seg : packed.plan.rows[r].segments) {
      const Request& req = reqs.at(static_cast<std::size_t>(seg.request_id));
      const PackedBatch single = alone(req);
      const EncoderMemory mem = model.encode(single, opts);
      const std::size_t first = flat_offset(
          Row{static_cast<Index>(r)}, Col{seg.offset}, packed.width());
      EXPECT_EQ(std::memcmp(batched.states.row(static_cast<Index>(first)),
                            mem.states.raw(),
                            static_cast<std::size_t>(seg.length * cfg.d_model) *
                                sizeof(float)),
                0)
          << "encoder states of request " << req.id << " moved under concat";
      EXPECT_EQ(batched_tokens.outputs.at(req.id),
                model.infer(single, opts).outputs.at(req.id))
          << "tokens of request " << req.id << " moved under concat";
    }
  }
}

}  // namespace
}  // namespace tcb
