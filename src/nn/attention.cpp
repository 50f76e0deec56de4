#include "rna/nn/attention.hpp"

#include <cmath>

#include "rna/common/check.hpp"
#include "rna/nn/init.hpp"
#include "rna/tensor/ops.hpp"

namespace rna::nn {

AttentionBlock::AttentionBlock(std::size_t input_dim, std::size_t attn_dim,
                               common::Rng& rng)
    : input_dim_(input_dim),
      attn_dim_(attn_dim),
      wq_({input_dim, attn_dim}),
      wk_({input_dim, attn_dim}),
      wv_({input_dim, attn_dim}),
      dwq_({input_dim, attn_dim}),
      dwk_({input_dim, attn_dim}),
      dwv_({input_dim, attn_dim}) {
  XavierUniform(wq_, input_dim, attn_dim, rng);
  XavierUniform(wk_, input_dim, attn_dim, rng);
  XavierUniform(wv_, input_dim, attn_dim, rng);
}

Tensor AttentionBlock::Forward(const Tensor& x) {
  RNA_CHECK_MSG(x.Cols() == input_dim_, "attention input width mismatch");
  const std::size_t steps = x.Rows();
  input_ = x;
  q_ = Tensor({steps, attn_dim_});
  k_ = Tensor({steps, attn_dim_});
  v_ = Tensor({steps, attn_dim_});
  tensor::MatMul(x, wq_, q_);
  tensor::MatMul(x, wk_, k_);
  tensor::MatMul(x, wv_, v_);

  attn_ = Tensor({steps, steps});
  const auto inv_sqrt =
      static_cast<float>(1.0 / std::sqrt(static_cast<double>(attn_dim_)));
  tensor::MatMulNT(q_, k_, attn_, inv_sqrt);
  tensor::SoftmaxRows(attn_);

  Tensor y({steps, attn_dim_});
  tensor::MatMul(attn_, v_, y);
  return y;
}

void AttentionBlock::Backward(const Tensor& dy) {
  const std::size_t steps = input_.Rows();
  RNA_CHECK_MSG(dy.Rows() == steps && dy.Cols() == attn_dim_,
                "attention backward shape mismatch");
  const auto inv_sqrt =
      static_cast<float>(1.0 / std::sqrt(static_cast<double>(attn_dim_)));

  // Y = P·V  →  dP = dY·Vᵀ, dV = Pᵀ·dY.
  Tensor dp({steps, steps});
  tensor::MatMulNT(dy, v_, dp);
  Tensor dv({steps, attn_dim_});
  tensor::MatMulTN(attn_, dy, dv);

  // Row-softmax backward: dS_i = P_i ⊙ (dP_i − ⟨dP_i, P_i⟩).
  Tensor ds({steps, steps});
  for (std::size_t i = 0; i < steps; ++i) {
    const float* prow = attn_.Data() + i * steps;
    const float* dprow = dp.Data() + i * steps;
    double inner = 0.0;
    for (std::size_t j = 0; j < steps; ++j)
      inner += static_cast<double>(dprow[j]) * prow[j];
    float* dsrow = ds.Data() + i * steps;
    for (std::size_t j = 0; j < steps; ++j)
      dsrow[j] = prow[j] * (dprow[j] - static_cast<float>(inner));
  }

  // S = (Q·Kᵀ)/√A  →  dQ = dS·K/√A, dK = dSᵀ·Q/√A.
  Tensor dq({steps, attn_dim_});
  tensor::MatMul(ds, k_, dq, inv_sqrt);
  Tensor dk({steps, attn_dim_});
  tensor::MatMulTN(ds, q_, dk, inv_sqrt);

  // Projection gradients.
  tensor::MatMulTN(input_, dq, dwq_, 1.0f, 1.0f);
  tensor::MatMulTN(input_, dk, dwk_, 1.0f, 1.0f);
  tensor::MatMulTN(input_, dv, dwv_, 1.0f, 1.0f);
}

}  // namespace rna::nn
