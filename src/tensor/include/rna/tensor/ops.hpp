#pragma once

// BLAS-free dense kernels. The three matmul variants cover exactly what
// backpropagation needs:
//   forward      Y  = X · W        (MatMul)
//   input grad   dX = dY · Wᵀ      (MatMulNT)
//   weight grad  dW = Xᵀ · dY      (MatMulTN)
// plus elementwise vector kernels used by optimizers and collectives.

#include <span>

#include "rna/tensor/tensor.hpp"

namespace rna::tensor {

/// C = alpha · A(m×k) · B(k×n) + beta · C(m×n).
void MatMul(const Tensor& a, const Tensor& b, Tensor& c, float alpha = 1.0f,
            float beta = 0.0f);

/// C = alpha · A(m×k) · Bᵀ(n×k) + beta · C(m×n).
void MatMulNT(const Tensor& a, const Tensor& b, Tensor& c, float alpha = 1.0f,
              float beta = 0.0f);

/// C = alpha · Aᵀ(k×m) · B(k×n) + beta · C(m×n).
void MatMulTN(const Tensor& a, const Tensor& b, Tensor& c, float alpha = 1.0f,
              float beta = 0.0f);

// ---- elementwise / vector kernels on flat spans ----

/// y += alpha * x
void Axpy(float alpha, std::span<const float> x, std::span<float> y);

/// x *= alpha
void Scale(std::span<float> x, float alpha);

/// out = a ⊙ b (elementwise product)
void Hadamard(std::span<const float> a, std::span<const float> b,
              std::span<float> out);

/// Column-wise sum of a 2-D tensor into `out` (length = cols).
void SumRows(const Tensor& matrix, std::span<float> out);

/// In-place row-wise softmax of a 2-D tensor.
void SoftmaxRows(Tensor& logits);

}  // namespace rna::tensor
