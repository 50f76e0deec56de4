// Unit tests for rna::tensor — tensor container semantics and the matmul /
// elementwise kernels backpropagation depends on, checked against naive
// reference implementations on random inputs.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include "rna/common/rng.hpp"
#include "rna/common/simd.hpp"
#include "rna/tensor/ops.hpp"
#include "rna/tensor/tensor.hpp"

namespace rna::tensor {
namespace {

Tensor RandomTensor(std::size_t r, std::size_t c, common::Rng& rng) {
  Tensor t({r, c});
  for (auto& x : t.Flat()) x = static_cast<float>(rng.Normal(0, 1));
  return t;
}

// Naive O(mnk) reference matmul.
Tensor RefMatMul(const Tensor& a, const Tensor& b) {
  Tensor c({a.Rows(), b.Cols()});
  for (std::size_t i = 0; i < a.Rows(); ++i) {
    for (std::size_t j = 0; j < b.Cols(); ++j) {
      double acc = 0;
      for (std::size_t k = 0; k < a.Cols(); ++k) {
        acc += double(a.At(i, k)) * b.At(k, j);
      }
      c.At(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

Tensor Transpose(const Tensor& a) {
  Tensor t({a.Cols(), a.Rows()});
  for (std::size_t i = 0; i < a.Rows(); ++i) {
    for (std::size_t j = 0; j < a.Cols(); ++j) t.At(j, i) = a.At(i, j);
  }
  return t;
}

void ExpectNear(const Tensor& a, const Tensor& b, float tol = 1e-4f) {
  ASSERT_TRUE(a.SameShape(b)) << a.ShapeString() << " vs " << b.ShapeString();
  for (std::size_t i = 0; i < a.Size(); ++i) {
    ASSERT_NEAR(a[i], b[i], tol) << "at flat index " << i;
  }
}

TEST(Tensor, ZeroInitialized) {
  Tensor t({3, 4});
  EXPECT_EQ(t.Size(), 12u);
  for (auto x : t.Flat()) EXPECT_EQ(x, 0.0f);
}

TEST(Tensor, ShapeAccessors) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.Rank(), 3u);
  EXPECT_EQ(t.Rows(), 2u);
  EXPECT_EQ(t.Cols(), 12u);  // trailing dims collapse
  Tensor v({5});
  EXPECT_EQ(v.Rows(), 1u);
  EXPECT_EQ(v.Cols(), 5u);
}

TEST(Tensor, AtIndexing) {
  Tensor t({2, 3});
  t.At(1, 2) = 7.0f;
  EXPECT_EQ(t[5], 7.0f);
  EXPECT_THROW(t.At(2, 0), std::logic_error);
  EXPECT_THROW(t.At(0, 3), std::logic_error);
}

TEST(Tensor, DataShapeMismatchThrows) {
  EXPECT_THROW(Tensor({2, 2}, {1.0f, 2.0f, 3.0f}), std::logic_error);
}

TEST(Tensor, ReshapePreservesCount) {
  Tensor t({2, 6});
  t.Reshape({3, 4});
  EXPECT_EQ(t.Rows(), 3u);
  EXPECT_THROW(t.Reshape({5, 5}), std::logic_error);
}

TEST(Tensor, SumAndNorm) {
  Tensor t({1, 3}, {1.0f, -2.0f, 3.0f});
  EXPECT_DOUBLE_EQ(t.Sum(), 2.0);
  EXPECT_DOUBLE_EQ(t.SquaredNorm(), 14.0);
}

TEST(Ops, MatMulMatchesReference) {
  common::Rng rng(1);
  for (auto [m, k, n] : {std::tuple<int, int, int>{1, 1, 1},
                         {3, 4, 5},
                         {7, 2, 9},
                         {16, 16, 16}}) {
    Tensor a = RandomTensor(m, k, rng);
    Tensor b = RandomTensor(k, n, rng);
    Tensor c({static_cast<std::size_t>(m), static_cast<std::size_t>(n)});
    MatMul(a, b, c);
    ExpectNear(c, RefMatMul(a, b));
  }
}

TEST(Ops, MatMulAlphaBeta) {
  common::Rng rng(2);
  Tensor a = RandomTensor(3, 4, rng);
  Tensor b = RandomTensor(4, 2, rng);
  Tensor c = RandomTensor(3, 2, rng);
  Tensor expected = c;
  Tensor ab = RefMatMul(a, b);
  for (std::size_t i = 0; i < expected.Size(); ++i) {
    expected[i] = 2.0f * ab[i] + 0.5f * expected[i];
  }
  MatMul(a, b, c, 2.0f, 0.5f);
  ExpectNear(c, expected);
}

TEST(Ops, MatMulNTMatchesTransposedReference) {
  common::Rng rng(3);
  Tensor a = RandomTensor(5, 7, rng);
  Tensor b = RandomTensor(4, 7, rng);  // stored n×k
  Tensor c({5, 4});
  MatMulNT(a, b, c);
  ExpectNear(c, RefMatMul(a, Transpose(b)));
}

TEST(Ops, MatMulTNMatchesTransposedReference) {
  common::Rng rng(4);
  Tensor a = RandomTensor(7, 5, rng);  // stored k×m
  Tensor b = RandomTensor(7, 3, rng);
  Tensor c({5, 3});
  MatMulTN(a, b, c);
  ExpectNear(c, RefMatMul(Transpose(a), b));
}

TEST(Ops, MatMulTNAccumulates) {
  common::Rng rng(5);
  Tensor a = RandomTensor(4, 3, rng);
  Tensor b = RandomTensor(4, 2, rng);
  Tensor c = RandomTensor(3, 2, rng);
  Tensor expected = RefMatMul(Transpose(a), b);
  for (std::size_t i = 0; i < expected.Size(); ++i) expected[i] += c[i];
  MatMulTN(a, b, c, 1.0f, 1.0f);
  ExpectNear(c, expected);
}

TEST(Ops, ShapeMismatchThrows) {
  Tensor a({2, 3}), b({4, 5}), c({2, 5});
  EXPECT_THROW(MatMul(a, b, c), std::logic_error);
}

TEST(Ops, AxpyScaleDot) {
  std::vector<float> x = {1, 2, 3};
  std::vector<float> y = {10, 20, 30};
  Axpy(2.0f, x, y);
  EXPECT_EQ(y[0], 12.0f);
  EXPECT_EQ(y[2], 36.0f);
  Scale(y, 0.5f);
  EXPECT_EQ(y[0], 6.0f);
  EXPECT_DOUBLE_EQ(Dot(x, x), 14.0);
}

TEST(Ops, AddAndHadamard) {
  std::vector<float> a = {1, 2}, b = {3, 4}, out(2);
  Add(a, b, out);
  EXPECT_EQ(out[1], 6.0f);
  Hadamard(a, b, out);
  EXPECT_EQ(out[1], 8.0f);
}

TEST(Ops, AddRowBroadcastAndSumRows) {
  Tensor m({2, 3}, {1, 2, 3, 4, 5, 6});
  std::vector<float> row = {10, 20, 30};
  AddRowBroadcast(m, row);
  EXPECT_EQ(m.At(0, 0), 11.0f);
  EXPECT_EQ(m.At(1, 2), 36.0f);
  std::vector<float> sums(3);
  SumRows(m, sums);
  EXPECT_EQ(sums[0], 11.0f + 14.0f);
  EXPECT_EQ(sums[2], 33.0f + 36.0f);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  common::Rng rng(6);
  Tensor t = RandomTensor(5, 8, rng);
  SoftmaxRows(t);
  for (std::size_t i = 0; i < 5; ++i) {
    double sum = 0;
    for (std::size_t j = 0; j < 8; ++j) {
      sum += t.At(i, j);
      EXPECT_GE(t.At(i, j), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Ops, SoftmaxNumericallyStable) {
  Tensor t({1, 3}, {1000.0f, 1001.0f, 1002.0f});
  SoftmaxRows(t);
  EXPECT_FALSE(std::isnan(t[0]));
  EXPECT_GT(t[2], t[1]);
  EXPECT_GT(t[1], t[0]);
  EXPECT_NEAR(t[0] + t[1] + t[2], 1.0f, 1e-5f);
}

// Property sweep: MatMul agrees with the reference over a grid of shapes.
class MatMulShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulShapes, AgreesWithReference) {
  auto [m, k, n] = GetParam();
  common::Rng rng(100 + m * 31 + k * 7 + n);
  Tensor a = RandomTensor(m, k, rng);
  Tensor b = RandomTensor(k, n, rng);
  Tensor c({static_cast<std::size_t>(m), static_cast<std::size_t>(n)});
  MatMul(a, b, c);
  ExpectNear(c, RefMatMul(a, b));
}

INSTANTIATE_TEST_SUITE_P(Grid, MatMulShapes,
                         ::testing::Combine(::testing::Values(1, 2, 5, 17),
                                            ::testing::Values(1, 3, 8),
                                            ::testing::Values(1, 4, 13)));

// ---------------------------------------------------------------------------
// Blocked/vectorized kernel contract: for every transpose variant, dispatch
// kAuto must be BITWISE identical to the scalar reference — not merely close.
// The sweep leans on awkward shapes: 1×1, primes (never a multiple of the
// vector width or tile size), k=0 (empty reduction), tall/skinny and
// short/fat extremes, n on the edges of the NN/TN register tile (whole
// 4-float vectors up to 32 columns, then a scalar tail), and the shapes
// the lstm-imbalance and MLP workloads run.

class ScopedScalarDispatch {
 public:
  ScopedScalarDispatch() : saved_(common::simd::ActiveDispatch()) {
    common::simd::SetDispatch(common::simd::Dispatch::kScalar);
  }
  ~ScopedScalarDispatch() { common::simd::SetDispatch(saved_); }

 private:
  common::simd::Dispatch saved_;
};

void ExpectBitwise(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(a.SameShape(b));
  for (std::size_t i = 0; i < a.Size(); ++i) {
    const float fa = a[i];
    const float fb = b[i];
    std::uint32_t ba, bb;
    std::memcpy(&ba, &fa, sizeof(ba));
    std::memcpy(&bb, &fb, sizeof(bb));
    ASSERT_EQ(ba, bb) << "bitwise mismatch at flat index " << i << ": " << fa
                      << " vs " << fb;
  }
}

struct MatMulCase {
  std::size_t m, k, n;
  float alpha, beta;
};

class MatMulBitwise : public ::testing::TestWithParam<MatMulCase> {};

TEST_P(MatMulBitwise, VectorizedMatchesScalarBitwise) {
  const auto [m, k, n, alpha, beta] = GetParam();
  common::Rng rng(7 + m * 131 + k * 17 + n * 3);
  Tensor a = RandomTensor(m, k, rng);
  Tensor b = RandomTensor(k, n, rng);
  Tensor at = Transpose(a);  // k×m operand for the TN variant
  Tensor bt = Transpose(b);  // n×k operand for the NT variant
  // Non-trivial beta needs non-trivial initial C, shared by both paths.
  Tensor c_init = RandomTensor(m, n, rng);

  struct Variant {
    const char* name;
    void (*run)(const Tensor&, const Tensor&, Tensor&, float, float);
    const Tensor* lhs;
    const Tensor* rhs;
  };
  const Variant variants[] = {
      {"NN", [](const Tensor& x, const Tensor& y, Tensor& c, float al,
                float be) { MatMul(x, y, c, al, be); },
       &a, &b},
      {"NT", [](const Tensor& x, const Tensor& y, Tensor& c, float al,
                float be) { MatMulNT(x, y, c, al, be); },
       &a, &bt},
      {"TN", [](const Tensor& x, const Tensor& y, Tensor& c, float al,
                float be) { MatMulTN(x, y, c, al, be); },
       &at, &b},
  };
  for (const auto& v : variants) {
    SCOPED_TRACE(v.name);
    Tensor c_auto = c_init;
    Tensor c_scalar = c_init;
    v.run(*v.lhs, *v.rhs, c_auto, alpha, beta);
    {
      ScopedScalarDispatch scalar;
      v.run(*v.lhs, *v.rhs, c_scalar, alpha, beta);
    }
    ExpectBitwise(c_auto, c_scalar);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AwkwardShapes, MatMulBitwise,
    ::testing::Values(
        MatMulCase{1, 1, 1, 1.0f, 0.0f},       // degenerate
        MatMulCase{1, 1, 1, -2.5f, 0.75f},     // degenerate + alpha/beta
        MatMulCase{3, 0, 5, 1.0f, 0.0f},       // k=0: pure beta pass
        MatMulCase{3, 0, 5, 1.0f, 0.5f},       // k=0 with beta scaling
        MatMulCase{7, 11, 13, 1.0f, 0.0f},     // all primes
        MatMulCase{7, 11, 13, 0.5f, 1.0f},     // primes, accumulate mode
        MatMulCase{2, 63, 129, 1.0f, 0.0f},    // straddles both block edges
        MatMulCase{2, 64, 128, 1.0f, 0.0f},    // exactly on block edges
        MatMulCase{2, 65, 127, 1.0f, 0.0f},    // just past / just short
        MatMulCase{97, 3, 2, 1.0f, 0.0f},      // tall and skinny
        MatMulCase{2, 3, 97, 1.0f, 0.0f},      // short and fat
        MatMulCase{5, 8, 8, 1.0f, -1.0f},      // vector-width aligned, β<0
        MatMulCase{16, 67, 31, 2.0f, 0.25f},   // k past one block, odd n
        MatMulCase{1, 200, 1, 1.0f, 0.0f},     // dot-product shaped
        // n on the register tile's column edges: one vector, two, half a
        // tile, a whole tile, a tile plus a scalar column, two tiles, two
        // tiles plus one.
        MatMulCase{3, 5, 4, 1.0f, 0.0f},
        MatMulCase{3, 5, 8, 0.5f, 1.0f},
        MatMulCase{3, 9, 16, 1.0f, 0.0f},
        MatMulCase{3, 9, 32, -1.5f, 0.25f},
        MatMulCase{3, 9, 33, 1.0f, 1.0f},
        MatMulCase{4, 17, 64, 1.0f, 0.0f},
        MatMulCase{4, 17, 65, 2.0f, -0.5f}));

// The shapes the workloads run: the LSTM's recurrent NN (8×16×64), its dWh
// TN (16×8×64) and its dh NT (8×64×16), and an MLP hidden layer's NN
// (16×48×48). Every case runs all three variants.
INSTANTIATE_TEST_SUITE_P(
    WorkloadShapes, MatMulBitwise,
    ::testing::Values(MatMulCase{8, 16, 64, 1.0f, 1.0f},
                      MatMulCase{16, 8, 64, 1.0f, 1.0f},
                      MatMulCase{8, 64, 16, 1.0f, 0.0f},
                      MatMulCase{16, 48, 48, 1.0f, 0.0f}));

// Zeros must take the same skip path in both dispatches (the wide NN/TN
// kernels skip av==0 rows; the scalar references must skip identically).
TEST(MatMulBitwiseZeros, SparseInputsMatchBitwise) {
  common::Rng rng(99);
  Tensor a = RandomTensor(9, 33, rng);
  for (std::size_t i = 0; i < a.Size(); i += 3) a.Flat()[i] = 0.0f;
  Tensor b = RandomTensor(33, 21, rng);
  const Tensor at = Transpose(a);
  Tensor c_auto({9, 21});
  Tensor c_scalar({9, 21});
  MatMul(a, b, c_auto);
  {
    ScopedScalarDispatch scalar;
    MatMul(a, b, c_scalar);
  }
  ExpectBitwise(c_auto, c_scalar);
  SCOPED_TRACE("TN");
  MatMulTN(at, b, c_auto);
  {
    ScopedScalarDispatch scalar;
    MatMulTN(at, b, c_scalar);
  }
  ExpectBitwise(c_auto, c_scalar);
}

// A skipped term adds nothing, not +0: under beta = 1 a C element whose
// every alpha·a is zero keeps its −0.0 in both dispatches. Rows 1 and 4 of
// A are zero; alpha = 0 zeroes every term. n = 37 covers a whole register
// tile, one more vector and a scalar column.
TEST(MatMulBitwiseZeros, SkippedTermsKeepNegativeZero) {
  common::Rng rng(5);
  Tensor a = RandomTensor(6, 9, rng);
  for (std::size_t kk = 0; kk < 9; ++kk) {
    a.At(1, kk) = 0.0f;
    a.At(4, kk) = 0.0f;
  }
  const Tensor at = Transpose(a);
  const Tensor b = RandomTensor(9, 37, rng);
  Tensor c_init({6, 37});
  c_init.Fill(-0.0f);
  for (const float alpha : {1.0f, 0.0f}) {
    for (const bool tn : {false, true}) {
      SCOPED_TRACE(std::string(tn ? "TN" : "NN") + " alpha " +
                   std::to_string(alpha));
      Tensor c_auto = c_init;
      Tensor c_scalar = c_init;
      auto run = [&](Tensor& c) {
        if (tn) {
          MatMulTN(at, b, c, alpha, 1.0f);
        } else {
          MatMul(a, b, c, alpha, 1.0f);
        }
      };
      run(c_auto);
      {
        ScopedScalarDispatch scalar;
        run(c_scalar);
      }
      ExpectBitwise(c_auto, c_scalar);
      for (std::size_t i = 0; i < 6; ++i) {
        if (alpha != 0.0f && i != 1 && i != 4) continue;
        for (std::size_t j = 0; j < 37; ++j) {
          const float v = c_auto.At(i, j);
          EXPECT_TRUE(v == 0.0f && std::signbit(v))
              << "C(" << i << ", " << j << ") = " << v;
        }
      }
    }
  }
}

}  // namespace
}  // namespace rna::tensor
