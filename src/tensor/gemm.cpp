// One packed GEMM driver for every product the engine runs.
//
// B lives in NR-column panels that span all of k (PackedMatrix, ops.hpp):
// panel jp holds k rows of NR floats. Linear layers pack their weights that
// way once, at construction; matmul / matmul_nt pack B into the calling
// thread's workspace and then call the same driver:
//
//   parallel over row-block x column-block tasks      >= kMinMaddsPerTask each
//     for each kc-block of k:
//       pack a block of A rows k-major (stack buffer)  L2-resident
//       for each NR-column panel of the task:           B panel in L1
//         for each MR-row panel of the block:           registers only
//           microkernel
//
// The microkernel computes an MR x NR tile held in vector registers. Each
// ISA compiles one (AVX-512 8x32, AVX2 6x16, NEON 8x8, scalar 4x8), and kc
// is fixed at 256. The kernel carries row-count instantiations 1..MR of
// itself, so the bottom row panel runs exactly the rows it has and no padded
// rows are computed. B panels are zero-padded to NR columns; a partial
// column panel goes through a C tile on the stack and the write-back clips
// to the valid region. Task scratch (the A block, the C tile) is on the
// stack, so pool workers never touch their workspace arenas.
//
// Numerical contract: every C element is ONE fused-multiply-add chain in
// ascending k over all of k, starting from 0.0f. The first kc-block starts
// the accumulators at zero; later blocks reload them from C, which continues
// the same chain because a float round-trips through memory exactly. Rows
// are independent accumulators and lanes are independent output columns, so
// m, kc, the task split and the thread count never reach an element's bits:
// row i of C depends only on row i of A and on B.
// Batched and single-request runs of a layer therefore agree bitwise for
// every k — the property the concat-vs-single equivalence suites rely on.
// The scalar reference (tcb::ref::matmul) reassociates differently and is
// compared under tolerance instead.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>

#include "parallel/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"
#include "tensor/tuning.hpp"
#include "tensor/workspace.hpp"

namespace tcb {
namespace {

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

/// Packed-block depth (kc never affects bits).
constexpr Index kKc = 256;
/// Floats in a task's A block (64 KiB): 64 rows at kc = 256, more rows when
/// k itself is shallower.
constexpr Index kABlockFloats = 16384;
/// Work floor per parallel task. Smaller tasks cost more in pool handoff
/// than they gain: on the decode vocab projection (16x128x8000), a 32K
/// floor ran end to end at 8.4k tokens/s and this one at 9.5k.
constexpr double kMinMaddsPerTask = 262144.0;

// --- the microkernel --------------------------------------------------------
//
// ukernel<MR, NV> computes an MR x (NV * lane-width) tile:
// c[r * ldc + j] (+)= sum_p ap[p * MR + r] * bp[p * NR + j]. `ap` is k-major
// (MR values per depth), `bp` likewise with NR values per depth. With
// `accumulate` the accumulators start from the tile already in C (the chain
// so far), else from zero. kMr x kNv is each ISA's tile: MR * NV
// accumulators plus NV B vectors plus one A broadcast fit its register file.

#if defined(TCB_SIMD_AVX512)

template <int MR, int NV>
void ukernel(Index kc, const float* ap, const float* bp, float* c, Index ldc,
             bool accumulate) TCB_BITWISE {
  constexpr Index kNR = NV * 16;
  __m512 acc[MR][NV];
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v)
      acc[r][v] = accumulate ? _mm512_loadu_ps(c + r * ldc + 16 * v)
                             : _mm512_setzero_ps();
  for (Index p = 0; p < kc; ++p) {
    __m512 b[NV];
    for (int v = 0; v < NV; ++v) b[v] = _mm512_loadu_ps(bp + p * kNR + 16 * v);
    const float* arow = ap + p * MR;
    for (int r = 0; r < MR; ++r) {
      const __m512 av = _mm512_set1_ps(arow[r]);
      for (int v = 0; v < NV; ++v) acc[r][v] = _mm512_fmadd_ps(av, b[v], acc[r][v]);
    }
  }
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) _mm512_storeu_ps(c + r * ldc + 16 * v, acc[r][v]);
}

// 8x32: 16 acc + 2 B + 1 bcast = 19 of 32 zmm.
constexpr int kMr = 8;
constexpr int kNv = 2;
constexpr Index kLanes = 16;
constexpr const char* kKernelTag = "avx512_8x32";

#elif defined(TCB_SIMD_AVX2)

template <int MR, int NV>
void ukernel(Index kc, const float* ap, const float* bp, float* c, Index ldc,
             bool accumulate) TCB_BITWISE {
  constexpr Index kNR = NV * 8;
  __m256 acc[MR][NV];
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v)
      acc[r][v] = accumulate ? _mm256_loadu_ps(c + r * ldc + 8 * v)
                             : _mm256_setzero_ps();
  for (Index p = 0; p < kc; ++p) {
    __m256 b[NV];
    for (int v = 0; v < NV; ++v) b[v] = _mm256_loadu_ps(bp + p * kNR + 8 * v);
    const float* arow = ap + p * MR;
    for (int r = 0; r < MR; ++r) {
      const __m256 av = _mm256_set1_ps(arow[r]);
      for (int v = 0; v < NV; ++v) acc[r][v] = _mm256_fmadd_ps(av, b[v], acc[r][v]);
    }
  }
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) _mm256_storeu_ps(c + r * ldc + 8 * v, acc[r][v]);
}

// 6x16: 12 acc + 2 B + 1 bcast = 15 of 16 ymm.
constexpr int kMr = 6;
constexpr int kNv = 2;
constexpr Index kLanes = 8;
constexpr const char* kKernelTag = "avx2_6x16";

#elif defined(TCB_SIMD_NEON)

template <int MR, int NV>
void ukernel(Index kc, const float* ap, const float* bp, float* c, Index ldc,
             bool accumulate) TCB_BITWISE {
  constexpr Index kNR = NV * 4;
  float32x4_t acc[MR][NV];
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v)
      acc[r][v] = accumulate ? vld1q_f32(c + r * ldc + 4 * v) : vdupq_n_f32(0.0f);
  for (Index p = 0; p < kc; ++p) {
    float32x4_t b[NV];
    for (int v = 0; v < NV; ++v) b[v] = vld1q_f32(bp + p * kNR + 4 * v);
    const float* arow = ap + p * MR;
    for (int r = 0; r < MR; ++r)
      for (int v = 0; v < NV; ++v)
        acc[r][v] = vfmaq_n_f32(acc[r][v], b[v], arow[r]);
  }
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) vst1q_f32(c + r * ldc + 4 * v, acc[r][v]);
}

// 8x8: 16 acc + 2 B = 18 of 32 q registers.
constexpr int kMr = 8;
constexpr int kNv = 2;
constexpr Index kLanes = 4;
constexpr const char* kKernelTag = "neon_8x8";

#else

/// Scalar fallback: NV counts 8-wide column groups for the autovectorizer;
/// std::fma keeps the chain fused like the vector kernels.
template <int MR, int NV>
void ukernel(Index kc, const float* ap, const float* bp, float* c, Index ldc,
             bool accumulate) TCB_BITWISE {
  constexpr Index kNR = NV * 8;
  float acc[MR * kNR];
  for (int r = 0; r < MR; ++r)
    for (Index j = 0; j < kNR; ++j)
      acc[r * kNR + j] = accumulate ? c[r * ldc + j] : 0.0f;
  for (Index p = 0; p < kc; ++p) {
    const float* arow = ap + p * MR;
    const float* brow = bp + p * kNR;
    for (int r = 0; r < MR; ++r)
      for (Index j = 0; j < kNR; ++j)
        acc[r * kNR + j] = std::fma(arow[r], brow[j], acc[r * kNR + j]);
  }
  for (int r = 0; r < MR; ++r)
    for (Index j = 0; j < kNR; ++j) c[r * ldc + j] = acc[r * kNR + j];
}

constexpr int kMr = 4;
constexpr int kNv = 1;
constexpr Index kLanes = 8;
constexpr const char* kKernelTag = "scalar_4x8";

#endif

/// Columns per microkernel tile, and so the panel width of every packed B.
constexpr Index kNr = kNv * kLanes;
static_assert(kMr * kKc <= kABlockFloats,
              "one row panel outgrows the stack A block");

using UkernelFn = void (*)(Index kc, const float* ap, const float* bp,
                           float* c, Index ldc, bool accumulate);

/// ukernel<1, kNv> .. ukernel<kMr, kNv>: entry r - 1 runs r rows.
template <int... R>
constexpr std::array<UkernelFn, sizeof...(R)> make_row_kernels(
    std::integer_sequence<int, R...>) {
  return {&ukernel<R + 1, kNv>...};
}
constexpr std::array<UkernelFn, kMr> kRowKernels =
    make_row_kernels(std::make_integer_sequence<int, kMr>{});

/// Floats in a (k x n) B packed as kNr-column panels spanning all of k.
std::size_t packed_floats(Index k, Index n) {
  return static_cast<std::size_t>((n + kNr - 1) / kNr) *
         static_cast<std::size_t>(k) * static_cast<std::size_t>(kNr);
}

/// Packs B (k x n, element (p, j) at b[p * row_stride + j * col_stride])
/// into kNr-column panels that span all of k, zero-padded past column n:
/// row-major B has strides (n, 1), and the (n, k) operand of matmul_nt
/// packs its transpose with strides (1, k). `bp` is raw workspace memory,
/// so padding is written explicitly.
void pack_b(const float* b, Index k, Index n, Index row_stride,
            Index col_stride, float* bp) TCB_BITWISE {
  const Index panels = (n + kNr - 1) / kNr;
  for (Index jp = 0; jp < panels; ++jp) {
    const Index j0 = jp * kNr;
    const Index jn = std::min<Index>(kNr, n - j0);
    float* dst = bp + static_cast<std::size_t>(jp) *
                          static_cast<std::size_t>(k) * kNr;
    for (Index p = 0; p < k; ++p) {
      const float* src = b + p * row_stride + j0 * col_stride;
      for (Index j = 0; j < jn; ++j) dst[p * kNr + j] = src[j * col_stride];
      for (Index j = jn; j < kNr; ++j) dst[p * kNr + j] = 0.0f;
    }
  }
}

/// Packs rows [i0, i0+rows) x depths [k0, k0+kc) of A (row-major, leading
/// dim k) as consecutive row panels of up to kMr rows. A panel of r rows is
/// k-major with stride r, the layout ukernel<r, kNv> reads, and starts at
/// offset (its first row - i0) * kc.
void pack_a(const float* a, Index k, Index i0, Index rows, Index k0, Index kc,
            float* ap) TCB_BITWISE {
  for (Index off = 0; off < rows; off += kMr) {
    const Index r_n = std::min<Index>(kMr, rows - off);
    float* dst = ap + static_cast<std::size_t>(off) * static_cast<std::size_t>(kc);
    for (Index r = 0; r < r_n; ++r) {
      const float* src = a +
                         static_cast<std::size_t>(i0 + off + r) *
                             static_cast<std::size_t>(k) +
                         static_cast<std::size_t>(k0);
      for (Index p = 0; p < kc; ++p) dst[p * r_n + r] = src[p];
    }
  }
}

/// The driver: C(m,n) = A(m,k) * B, with B packed in kNr-column panels
/// spanning all of k. C must already have shape (m, n).
void gemm_packed(const float* a, Index m, Index k, const float* bp, Index n,
                 float* c) TCB_BITWISE {
  const Index mr = kMr;
  const Index nr = kNr;
  const Index row_panels = (m + mr - 1) / mr;
  const Index col_panels = (n + nr - 1) / nr;
  const GemmTaskGrid grid = gemm_task_grid(m, n, k, mr, nr);
  const Index block_rows =
      std::max<Index>(mr, kABlockFloats / std::min(kKc, k) / mr * mr);
  const auto panel_floats = static_cast<std::size_t>(k) * nr;

  parallel_for(
      static_cast<std::size_t>(grid.row_blocks * grid.col_blocks),
      [&](std::size_t begin, std::size_t end) {
        alignas(64) float ablock[kABlockFloats];
        alignas(64) float ctile[kMr * kNr] = {};
        for (std::size_t t = begin; t < end; ++t) {
          const Index rb = static_cast<Index>(t) / grid.col_blocks;
          const Index cb = static_cast<Index>(t) % grid.col_blocks;
          const Index i_begin = row_panels * rb / grid.row_blocks * mr;
          const Index i_end =
              std::min(m, row_panels * (rb + 1) / grid.row_blocks * mr);
          const Index jp_begin = col_panels * cb / grid.col_blocks;
          const Index jp_end = col_panels * (cb + 1) / grid.col_blocks;
          for (Index k0 = 0; k0 < k; k0 += kKc) {
            const Index kc = std::min(kKc, k - k0);
            const bool accumulate = k0 > 0;
            for (Index ib = i_begin; ib < i_end; ib += block_rows) {
              const Index rows = std::min(block_rows, i_end - ib);
              pack_a(a, k, ib, rows, k0, kc, ablock);
              for (Index jp = jp_begin; jp < jp_end; ++jp) {
                const Index j0 = jp * nr;
                const Index jn = std::min(nr, n - j0);
                const float* bpanel = bp + static_cast<std::size_t>(jp) * panel_floats +
                                      static_cast<std::size_t>(k0) * nr;
                for (Index off = 0; off < rows; off += mr) {
                  const Index r_n = std::min(mr, rows - off);
                  const UkernelFn fn = kRowKernels[r_n - 1];
                  const float* ap = ablock + off * kc;
                  float* cblk = c + static_cast<std::size_t>(ib + off) *
                                        static_cast<std::size_t>(n) +
                                j0;
                  if (jn == nr) {
                    fn(kc, ap, bpanel, cblk, n, accumulate);
                    continue;
                  }
                  // Partial column panel: run the full-width tile on the
                  // stack and write back only the valid columns.
                  if (accumulate)
                    for (Index r = 0; r < r_n; ++r)
                      std::copy_n(cblk + r * n, jn, ctile + r * nr);
                  fn(kc, ap, bpanel, ctile, nr, accumulate);
                  for (Index r = 0; r < r_n; ++r)
                    std::copy_n(ctile + r * nr, jn, cblk + r * n);
                }
              }
            }
          }
        }
      });
}

/// Shapes C to (m, n); false when there is nothing to multiply (C is then
/// complete: empty, or zero-filled for k == 0).
bool prepare(Index m, Index k, Index n, Tensor& c) {
  if (!(c.shape() == Shape{m, n})) c = Tensor(Shape{m, n});
  if (m == 0 || n == 0) return false;
  if (k == 0) {
    c.fill(0.0f);
    return false;
  }
  return true;
}

/// C(m,n) = A(m,k) * B for an unpacked B with pack_b's strides: B is packed
/// into the calling thread's workspace first. The scope outlives the
/// blocking parallel_for, so worker reads always see live storage.
void pack_and_multiply(const float* a, Index m, Index k, const float* b,
                       Index row_stride, Index col_stride, Index n,
                       float* c) TCB_BITWISE {
  WorkspaceScope scope;
  float* bp = scope.alloc(packed_floats(k, n));
  pack_b(b, k, n, row_stride, col_stride, bp);
  gemm_packed(a, m, k, bp, n, c);
}

}  // namespace

std::string gemm_tuning_summary() {
  return cache_geometry().to_string() + " " + kKernelTag + "/kc" +
         std::to_string(kKc);
}

GemmTaskGrid gemm_task_grid(Index m, Index n, Index k, Index mr, Index nr) {
  GemmTaskGrid g;
  if (m <= 0 || n <= 0 || k <= 0 || mr <= 0 || nr <= 0) return g;
  const Index row_panels = (m + mr - 1) / mr;
  const Index col_panels = (n + nr - 1) / nr;
  const double madds =
      static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(k);
  const auto workers =
      static_cast<Index>(ThreadPool::global().parallelism());
  const Index tasks = std::clamp<Index>(
      static_cast<Index>(madds / kMinMaddsPerTask), 1, std::max<Index>(1, workers));
  // Cut the side whose operand is larger, so each task streams only its
  // share of it: columns when B (k x n) outweighs A (m x k), as in every
  // decode step; rows for long activations. The other side takes whatever
  // task count is left.
  if (n >= m) {
    g.col_blocks = std::min(col_panels, tasks);
    g.row_blocks = std::min(row_panels, tasks / g.col_blocks);
  } else {
    g.row_blocks = std::min(row_panels, tasks);
    g.col_blocks = std::min(col_panels, tasks / g.row_blocks);
  }
  return g;
}

PackedMatrix::PackedMatrix(Index k, Index n) : k_(k), n_(n) {
  require(k >= 0 && n >= 0, "PackedMatrix: negative extent");
  data_.assign(packed_floats(k, n), 0.0f);
}

PackedMatrix PackedMatrix::random_uniform(Index k, Index n, Rng& rng,
                                          float scale) {
  PackedMatrix pm(k, n);
  // Row-major draw order, the order Tensor::random_uniform uses, written
  // straight to each element's panel slot.
  const Index panels = (n + kNr - 1) / kNr;
  for (Index p = 0; p < k; ++p)
    for (Index jp = 0; jp < panels; ++jp) {
      float* dst = pm.data_.data() +
                   (static_cast<std::size_t>(jp) * static_cast<std::size_t>(k) +
                    static_cast<std::size_t>(p)) *
                       static_cast<std::size_t>(kNr);
      const Index jn = std::min(kNr, n - jp * kNr);
      for (Index j = 0; j < jn; ++j) dst[j] = rng.weight(scale);
    }
  return pm;
}

Tensor PackedMatrix::unpack() const {
  Tensor b(Shape{k_, n_});
  for (Index p = 0; p < k_; ++p)
    for (Index j = 0; j < n_; ++j)
      b.at(p, j) = data_[(static_cast<std::size_t>(j / kNr) *
                              static_cast<std::size_t>(k_) +
                          static_cast<std::size_t>(p)) *
                             static_cast<std::size_t>(kNr) +
                         static_cast<std::size_t>(j % kNr)];
  return b;
}

void matmul(const Tensor& a, const Tensor& b, Tensor& c) {
  require(a.rank() == 2 && b.rank() == 2, "matmul: rank-2 operands required");
  const Index m = a.dim(0), k = a.dim(1), n = b.dim(1);
  require(b.dim(0) == k, "matmul: inner dimension mismatch");
  if (!prepare(m, k, n, c)) return;
  pack_and_multiply(a.raw(), m, k, b.raw(), n, 1, n, c.raw());
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor c;
  matmul(a, b, c);
  return c;
}

void matmul(const Tensor& a, const PackedMatrix& b, Tensor& c) {
  require(a.rank() == 2, "matmul: rank-2 operands required");
  const Index m = a.dim(0), k = a.dim(1), n = b.cols();
  require(b.rows() == k, "matmul: inner dimension mismatch");
  if (!prepare(m, k, n, c)) return;
  gemm_packed(a.raw(), m, k, b.raw(), n, c.raw());
}

void matmul_nt(const Tensor& a, const Tensor& b, Tensor& c) {
  require(a.rank() == 2 && b.rank() == 2, "matmul_nt: rank-2 operands required");
  const Index m = a.dim(0), k = a.dim(1), n = b.dim(0);
  require(b.dim(1) == k, "matmul_nt: inner dimension mismatch");
  if (!prepare(m, k, n, c)) return;
  pack_and_multiply(a.raw(), m, k, b.raw(), 1, k, n, c.raw());
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  Tensor c;
  matmul_nt(a, b, c);
  return c;
}

}  // namespace tcb
