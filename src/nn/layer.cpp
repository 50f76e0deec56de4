#include "rna/nn/layer.hpp"

#include "rna/common/check.hpp"
#include "rna/common/simd.hpp"
#include "rna/nn/init.hpp"
#include "rna/tensor/ops.hpp"

namespace rna::nn {

Dense::Dense(std::size_t in, std::size_t out, common::Rng& rng)
    : in_(in),
      out_(out),
      w_({in, out}),
      b_({out}),
      dw_({in, out}),
      db_({out}) {
  XavierUniform(w_, in, out, rng);
}

Tensor Dense::Forward(const Tensor& x) {
  RNA_CHECK_MSG(x.Cols() == in_, "Dense input width mismatch");
  cached_input_ = x;
  Tensor y({x.Rows(), out_});
  ForwardInto(x.Data(), x.Rows(), y.Data());
  return y;
}

void Dense::ForwardInto(const float* x, std::size_t rows, float* y) const {
  common::simd::MatMulNN(x, w_.Data(), y, rows, in_, out_, 1.0f, 0.0f);
  for (std::size_t i = 0; i < rows; ++i) {
    common::simd::AddInto({y + i * out_, out_}, b_.Flat());
  }
}

Tensor Dense::Backward(const Tensor& dy) {
  RNA_CHECK_MSG(dy.Rows() == cached_input_.Rows() && dy.Cols() == out_,
                "Dense backward shape mismatch");
  // dW += Xᵀ·dY, db += column sums, dX = dY·Wᵀ.
  tensor::MatMulTN(cached_input_, dy, dw_, 1.0f, 1.0f);
  Tensor col_sums({out_});
  tensor::SumRows(dy, col_sums.Flat());
  tensor::Axpy(1.0f, col_sums.Flat(), db_.Flat());
  Tensor dx({cached_input_.Rows(), in_});
  tensor::MatMulNT(dy, w_, dx);
  return dx;
}

Tensor Relu::Forward(const Tensor& x) {
  cached_input_ = x;
  Tensor y = x;
  Apply(y.Flat());
  return y;
}

void Relu::Apply(std::span<float> x) {
  for (auto& v : x) v = v > 0.0f ? v : 0.0f;
}

Tensor Relu::Backward(const Tensor& dy) {
  RNA_CHECK(dy.SameShape(cached_input_));
  Tensor dx = dy;
  auto in = cached_input_.Flat();
  auto out = dx.Flat();
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (in[i] <= 0.0f) out[i] = 0.0f;
  }
  return dx;
}

Dropout::Dropout(double rate, std::uint64_t seed) : rate_(rate), rng_(seed) {
  RNA_CHECK_MSG(rate >= 0.0 && rate < 1.0, "dropout rate must be in [0, 1)");
}

Tensor Dropout::Forward(const Tensor& x) {
  if (!Active()) {
    mask_ = Tensor();
    return x;
  }
  mask_ = Tensor(x.Shape());
  const auto keep = static_cast<float>(1.0 / (1.0 - rate_));
  auto m = mask_.Flat();
  for (auto& v : m) v = rng_.Bernoulli(rate_) ? 0.0f : keep;
  Tensor y(x.Shape());
  tensor::Hadamard(x.Flat(), m, y.Flat());
  return y;
}

Tensor Dropout::Backward(const Tensor& dy) {
  if (mask_.Empty()) return dy;
  RNA_CHECK(dy.SameShape(mask_));
  Tensor dx(dy.Shape());
  tensor::Hadamard(dy.Flat(), mask_.Flat(), dx.Flat());
  return dx;
}

}  // namespace rna::nn
