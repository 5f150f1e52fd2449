// Tensor kernels for the transformer engine.
//
// All kernels are multithreaded via the global ThreadPool with work floors
// chosen so small problems stay on the calling thread, and vectorized
// through src/tensor/simd.hpp (AVX-512 / AVX2 / NEON, scalar when
// TCB_SIMD=OFF). Every GEMM (src/tensor/gemm.cpp) runs one driver over B
// packed into NR-column panels that span all of k: a Linear layer's
// PackedMatrix is packed once at construction, and matmul / matmul_nt pack
// their B operand per call. Each output element is one ascending-k FMA chain
// whatever the shape, blocking or thread count. The original naive loops
// survive as tcb::ref::* (tensor/kernel_ref.hpp) and the equivalence suite
// pins the fast kernels to them.
#pragma once

#include <cstddef>
// The raw-new rule reads this header name as an expression; the header only
// supplies std::align_val_t for CacheLineAllocator.
#include <new>  // tcb-lint: allow(no-raw-new-delete)
#include <vector>

#include "tensor/tensor.hpp"
#include "util/numeric.hpp"

namespace tcb {

/// Additive mask value for "attention forbidden". Chosen so exp(x - max)
/// underflows to exactly 0.0f, making masked positions contribute nothing —
/// this is what makes concat-batched inference bitwise-comparable with
/// per-request inference.
inline constexpr float kMaskedOut = -1e30f;

/// std::allocator replacement handing out 64-byte (cache-line) aligned
/// storage, so every row of a packed panel starts on a line boundary.
template <class T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};
  CacheLineAllocator() = default;
  template <class U>
  explicit CacheLineAllocator(const CacheLineAllocator<U>& /*other*/) noexcept {}
  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t /*n*/) noexcept {
    ::operator delete(p, kAlign);
  }
  friend bool operator==(const CacheLineAllocator&,
                         const CacheLineAllocator&) noexcept {
    return true;
  }
};

/// A (k,n) matrix stored the way the GEMM microkernel reads B: NR-column
/// panels that span all of k. Panel jp holds k rows of NR floats, columns
/// jp*NR .. jp*NR+NR-1, zero-padded past n. NR is the width of the ISA's
/// GEMM microkernel. Linear layers keep their weights only in this form,
/// so a forward pass multiplies with no repack and no second copy exists.
class PackedMatrix {
 public:
  PackedMatrix() = default;

  /// Uniform in [-scale, scale], drawn in row-major (k,n) order — bitwise
  /// the values Tensor::random_uniform(Shape{k, n}, rng, scale) holds — and
  /// written straight into the panels.
  [[nodiscard]] static PackedMatrix random_uniform(Index k, Index n, Rng& rng,
                                                   float scale);

  [[nodiscard]] Index rows() const noexcept { return k_; }
  [[nodiscard]] Index cols() const noexcept { return n_; }

  /// The row-major (k,n) matrix, as a new tensor.
  [[nodiscard]] Tensor unpack() const;

  /// Panel storage: panel jp starts at raw() + jp * rows() * NR.
  [[nodiscard]] const float* raw() const noexcept TCB_LIFETIME_BOUND {
    return data_.data();
  }

 private:
  PackedMatrix(Index k, Index n);  ///< zero-filled panels

  Index k_ = 0;
  Index n_ = 0;
  std::vector<float, CacheLineAllocator<float>> data_;
};

/// C = A(m,k) * B(k,n). Shapes are validated; C is resized.
/// TCB_BITWISE: output row i is one ascending-k FMA chain per element over
/// row i of A — identical whatever other rows ride in the same call.
void matmul(const Tensor& a, const Tensor& b, Tensor& c) TCB_BITWISE;
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b) TCB_BITWISE;

/// C = A(m,k) * B with B already packed; the same chains as the Tensor
/// overload, with no per-call packing. Used by Linear.
void matmul(const Tensor& a, const PackedMatrix& b, Tensor& c) TCB_BITWISE;

/// C = A(m,k) * B(n,k)^T, i.e. pairwise dot products. Used for Q·K^T where K
/// is stored row-major per position.
void matmul_nt(const Tensor& a, const Tensor& b, Tensor& c) TCB_BITWISE;
[[nodiscard]] Tensor matmul_nt(const Tensor& a, const Tensor& b) TCB_BITWISE;

/// How the GEMM driver splits C(m,n) = A(m,k) B(k,n) over the global pool:
/// row_blocks x col_blocks tasks of whole MR-row and NR-column panels. The
/// task count is at most the pool's parallelism and keeps at least a fixed
/// number of multiply-adds per task; the side with the larger operand is cut
/// first, so a decode step (m << n) splits its columns across workers.
/// Exposed for the kernel tests.
struct GemmTaskGrid {
  Index row_blocks = 1;
  Index col_blocks = 1;
};
[[nodiscard]] GemmTaskGrid gemm_task_grid(Index m, Index n, Index k, Index mr,
                                          Index nr);

/// y += x (same shape).
void add_inplace(Tensor& y, const Tensor& x) TCB_BITWISE;

/// Adds a length-n bias vector to every row of a (m,n) tensor.
void add_bias_inplace(Tensor& y, const Tensor& bias) TCB_BITWISE;

/// y *= s.
void scale_inplace(Tensor& y, float s) TCB_BITWISE;

/// Row-wise softmax over the last dimension of a rank-2 tensor, in place.
/// A row whose maximum is <= kMaskedOut / 2 (i.e. fully masked) becomes all
/// zeros instead of NaN.
void softmax_rows_inplace(Tensor& t) TCB_BITWISE;

/// LayerNorm over the last dimension: y = (x - mu) / sqrt(var + eps) * gamma
/// + beta, for each row of a (m,d) tensor.
void layer_norm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                float eps, Tensor& y) TCB_BITWISE;

/// Elementwise ReLU in place.
void relu_inplace(Tensor& t) TCB_BITWISE;

/// argmax over the last dimension of a (m,n) tensor; returns m indices.
[[nodiscard]] std::vector<Index> argmax_rows(const Tensor& t);

}  // namespace tcb
