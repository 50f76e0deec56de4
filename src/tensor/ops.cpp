#include "rna/tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#include "rna/common/check.hpp"
#include "rna/common/simd.hpp"

namespace rna::tensor {

namespace {

void CheckMatMulShapes(std::size_t am, std::size_t ak, std::size_t bk,
                       std::size_t bn, const Tensor& c) {
  RNA_CHECK_MSG(ak == bk, "inner dimensions must match");
  RNA_CHECK_MSG(c.Rows() == am && c.Cols() == bn,
                "output shape does not match");
}

}  // namespace

// The three matmuls check shapes and delegate to the dispatching blocked
// kernels in rna/common/simd.hpp (scalar reference under Dispatch::kScalar).

void MatMul(const Tensor& a, const Tensor& b, Tensor& c, float alpha,
            float beta) {
  const std::size_t m = a.Rows(), k = a.Cols(), n = b.Cols();
  CheckMatMulShapes(m, k, b.Rows(), n, c);
  common::simd::MatMulNN(a.Data(), b.Data(), c.Data(), m, k, n, alpha, beta);
}

void MatMulNT(const Tensor& a, const Tensor& b, Tensor& c, float alpha,
              float beta) {
  // C(m×n) = A(m×k) · Bᵀ, where B is stored n×k.
  const std::size_t m = a.Rows(), k = a.Cols(), n = b.Rows();
  RNA_CHECK_MSG(b.Cols() == k, "inner dimensions must match");
  RNA_CHECK_MSG(c.Rows() == m && c.Cols() == n, "output shape does not match");
  common::simd::MatMulNT(a.Data(), b.Data(), c.Data(), m, k, n, alpha, beta);
}

void MatMulTN(const Tensor& a, const Tensor& b, Tensor& c, float alpha,
              float beta) {
  // C(m×n) = Aᵀ · B, where A is stored k×m and B is stored k×n.
  const std::size_t k = a.Rows(), m = a.Cols(), n = b.Cols();
  RNA_CHECK_MSG(b.Rows() == k, "inner dimensions must match");
  RNA_CHECK_MSG(c.Rows() == m && c.Cols() == n, "output shape does not match");
  common::simd::MatMulTN(a.Data(), b.Data(), c.Data(), m, k, n, alpha, beta);
}

void Axpy(float alpha, std::span<const float> x, std::span<float> y) {
  RNA_CHECK(x.size() == y.size());
  common::simd::WeightedAccumulate(y, x, alpha);
}

void Scale(std::span<float> x, float alpha) {
  common::simd::ScaleInto(x, alpha);
}

void Hadamard(std::span<const float> a, std::span<const float> b,
              std::span<float> out) {
  RNA_CHECK(a.size() == b.size() && a.size() == out.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * b[i];
}

void SumRows(const Tensor& matrix, std::span<float> out) {
  RNA_CHECK(matrix.Cols() == out.size());
  std::fill(out.begin(), out.end(), 0.0f);
  const std::size_t rows = matrix.Rows(), cols = matrix.Cols();
  const float* p = matrix.Data();
  for (std::size_t i = 0; i < rows; ++i) {
    common::simd::AddInto(out, {p + i * cols, cols});
  }
}

void SoftmaxRows(Tensor& logits) {
  const std::size_t rows = logits.Rows(), cols = logits.Cols();
  float* p = logits.Data();
  for (std::size_t i = 0; i < rows; ++i) {
    float* row = p + i * cols;
    float peak = row[0];
    for (std::size_t j = 1; j < cols; ++j) peak = std::max(peak, row[j]);
    double sum = 0.0;
    for (std::size_t j = 0; j < cols; ++j) {
      row[j] = std::exp(row[j] - peak);
      sum += row[j];
    }
    const auto inv = static_cast<float>(1.0 / sum);
    for (std::size_t j = 0; j < cols; ++j) row[j] *= inv;
  }
}

}  // namespace rna::tensor
