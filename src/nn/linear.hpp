// Affine layer y = xW + b.
#pragma once

#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/lifetime.hpp"
#include "util/numeric.hpp"

namespace tcb {

class Linear {
 public:
  Linear() = default;

  /// Weights U[-scale, scale] with scale = 1/sqrt(in); bias zero.
  Linear(Index in, Index out, Rng& rng);

  [[nodiscard]] Index in_features() const noexcept { return weight_.rows(); }
  [[nodiscard]] Index out_features() const noexcept { return weight_.cols(); }

  /// x: (m, in) -> (m, out). Row r of the output depends only on row r of
  /// x — bitwise-identical whatever else is in the batch.
  [[nodiscard]] Tensor forward(const Tensor& x) const TCB_BITWISE;
  void forward(const Tensor& x, Tensor& y) const TCB_BITWISE;

  /// The (in, out) weights unpacked into a new tensor (tests, inspection).
  [[nodiscard]] Tensor weight() const { return weight_.unpack(); }
  [[nodiscard]] const Tensor& bias() const noexcept TCB_LIFETIME_BOUND {
    return bias_;
  }

 private:
  PackedMatrix weight_;  ///< (in, out), packed once for the GEMM driver
  Tensor bias_;          ///< (out)
};

}  // namespace tcb
