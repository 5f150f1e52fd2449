#include "nn/linear.hpp"

#include <cmath>

namespace tcb {

Linear::Linear(Index in, Index out, Rng& rng)
    : weight_(PackedMatrix::random_uniform(
          in, out, rng, 1.0f / std::sqrt(static_cast<float>(in)))),
      bias_(Shape{out}) {}

Tensor Linear::forward(const Tensor& x) const {
  Tensor y;
  forward(x, y);
  return y;
}

void Linear::forward(const Tensor& x, Tensor& y) const {
  matmul(x, weight_, y);
  add_bias_inplace(y, bias_);
}

}  // namespace tcb
