#include "rna/common/simd.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <type_traits>

namespace rna::common::simd {

namespace {

std::atomic<Dispatch> g_dispatch{Dispatch::kAuto};

// Shared by both dispatch paths so the beta handling is bitwise identical.
inline void ApplyBeta(float* c, std::size_t elems, float beta) {
  if (beta == 0.0f) {
    std::fill(c, c + elems, 0.0f);
  } else if (beta != 1.0f) {
    for (std::size_t i = 0; i < elems; ++i) c[i] *= beta;
  }
}

// Fixed pairwise reduction of the NT kernel's 8 partial sums. Both the
// scalar reference and the wide path reduce through this exact tree.
inline float ReduceLanes(const float* lanes) {
  return ((lanes[0] + lanes[4]) + (lanes[1] + lanes[5])) +
         ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7]));
}

#if RNA_SIMD_VECTOR_EXT

using detail::kLanes;
using detail::Load4;
using detail::Store4;
using detail::V4f;

// NN/TN register tile: one C row's chunk of up to kTileRegs vectors stays in
// registers while k runs 0..k ascending, so each C element gets exactly the
// scalar reference's sequence — one add of av·b per k, av = alpha·A[i][k],
// skipped when av == 0. A's row is read with stride `a_step` (1 for NN, m
// for TN, whose A is stored k×m). The unroll pragmas fully unroll the
// register loops; without them GCC keeps `acc` on the stack.
constexpr std::size_t kTileRegs = 8;
constexpr std::size_t kTileCols = kTileRegs * kLanes;

template <std::size_t kRegs>
inline void RowTile(const float* a, std::size_t a_step, const float* b,
                    std::size_t n, float* c, std::size_t k, float alpha) {
  V4f acc[kRegs];
#pragma GCC unroll 8
  for (std::size_t v = 0; v < kRegs; ++v) acc[v] = Load4(c + v * kLanes);
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float av = alpha * a[kk * a_step];
    if (av == 0.0f) continue;
    const float* brow = b + kk * n;
#pragma GCC unroll 8
    for (std::size_t v = 0; v < kRegs; ++v) {
      acc[v] += Load4(brow + v * kLanes) * av;
    }
  }
#pragma GCC unroll 8
  for (std::size_t v = 0; v < kRegs; ++v) Store4(c + v * kLanes, acc[v]);
}

// C[0, cols) of one row for cols ≤ kTileCols: whole vectors through the
// register tile, the last cols % 4 columns as scalars in the same order.
inline void RowChunk(const float* a, std::size_t a_step, const float* b,
                     std::size_t n, float* c, std::size_t k, float alpha,
                     std::size_t cols) {
  switch (cols / kLanes) {
    case 8: RowTile<8>(a, a_step, b, n, c, k, alpha); break;
    case 7: RowTile<7>(a, a_step, b, n, c, k, alpha); break;
    case 6: RowTile<6>(a, a_step, b, n, c, k, alpha); break;
    case 5: RowTile<5>(a, a_step, b, n, c, k, alpha); break;
    case 4: RowTile<4>(a, a_step, b, n, c, k, alpha); break;
    case 3: RowTile<3>(a, a_step, b, n, c, k, alpha); break;
    case 2: RowTile<2>(a, a_step, b, n, c, k, alpha); break;
    case 1: RowTile<1>(a, a_step, b, n, c, k, alpha); break;
    default: break;
  }
  for (std::size_t j = cols - cols % kLanes; j < cols; ++j) {
    float acc = c[j];
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = alpha * a[kk * a_step];
      if (av == 0.0f) continue;
      acc += av * b[kk * n + j];
    }
    c[j] = acc;
  }
}

void WideMatMulNN(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n, float alpha, float beta) {
  ApplyBeta(c, m * n, beta);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; j += kTileCols) {
      RowChunk(a + i * k, 1, b + j, n, c + i * n + j, k, alpha,
               std::min(kTileCols, n - j));
    }
  }
}

void WideMatMulTN(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n, float alpha, float beta) {
  ApplyBeta(c, m * n, beta);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; j += kTileCols) {
      RowChunk(a + i, m, b + j, n, c + i * n + j, k, alpha,
               std::min(kTileCols, n - j));
    }
  }
}

// The NT kernel's 8 lanes as two 4-lane halves, lo = lanes 0–3 and hi =
// lanes 4–7, folded by ReduceLanes' tree: (lo + hi) pairs lane l with
// lane l + 4.
inline float FoldLanes(V4f lo, V4f hi) {
  const V4f s = lo + hi;
  return (s[0] + s[1]) + (s[2] + s[3]);
}

void WideMatMulNT(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n, float alpha, float beta) {
  ApplyBeta(c, m * n, beta);
  // Four output columns per pass: the A row is loaded once and streamed
  // against four B rows (4× fewer loads, four independent dependency
  // chains). Each column keeps its own accumulator/lanes/tail, so the FP
  // operation sequence per C element is identical to the one-column form
  // the scalar reference simulates — the unroll is invisible bitwise.
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* b0 = b + j * k;
      const float* b1 = b0 + k;
      const float* b2 = b1 + k;
      const float* b3 = b2 + k;
      V4f lo0 = {0, 0, 0, 0}, hi0 = {0, 0, 0, 0};
      V4f lo1 = {0, 0, 0, 0}, hi1 = {0, 0, 0, 0};
      V4f lo2 = {0, 0, 0, 0}, hi2 = {0, 0, 0, 0};
      V4f lo3 = {0, 0, 0, 0}, hi3 = {0, 0, 0, 0};
      std::size_t kk = 0;
      for (; kk + 2 * kLanes <= k; kk += 2 * kLanes) {
        const V4f alo = Load4(arow + kk);
        const V4f ahi = Load4(arow + kk + kLanes);
        lo0 += alo * Load4(b0 + kk);
        hi0 += ahi * Load4(b0 + kk + kLanes);
        lo1 += alo * Load4(b1 + kk);
        hi1 += ahi * Load4(b1 + kk + kLanes);
        lo2 += alo * Load4(b2 + kk);
        hi2 += ahi * Load4(b2 + kk + kLanes);
        lo3 += alo * Load4(b3 + kk);
        hi3 += ahi * Load4(b3 + kk + kLanes);
      }
      float s0 = FoldLanes(lo0, hi0);
      float s1 = FoldLanes(lo1, hi1);
      float s2 = FoldLanes(lo2, hi2);
      float s3 = FoldLanes(lo3, hi3);
      for (; kk < k; ++kk) {
        const float av = arow[kk];
        s0 += av * b0[kk];
        s1 += av * b1[kk];
        s2 += av * b2[kk];
        s3 += av * b3[kk];
      }
      crow[j] += alpha * s0;
      crow[j + 1] += alpha * s1;
      crow[j + 2] += alpha * s2;
      crow[j + 3] += alpha * s3;
    }
    for (; j < n; ++j) {
      const float* brow = b + j * k;
      V4f lo = {0, 0, 0, 0}, hi = {0, 0, 0, 0};
      std::size_t kk = 0;
      for (; kk + 2 * kLanes <= k; kk += 2 * kLanes) {
        lo += Load4(arow + kk) * Load4(brow + kk);
        hi += Load4(arow + kk + kLanes) * Load4(brow + kk + kLanes);
      }
      float s = FoldLanes(lo, hi);
      for (; kk < k; ++kk) s += arow[kk] * brow[kk];
      crow[j] += alpha * s;
    }
  }
}

#endif  // RNA_SIMD_VECTOR_EXT

// ---- activations ----
//
// Each activation is one lane-generic body instantiated twice: at float
// (the scalar reference) and at V4f (the wide path). Both instantiations
// spell out the same operations in the same order, so each wide lane rounds
// exactly like the reference. Like the matmuls, they run 4 lanes: 8-lane
// compares, selects and bit casts get split or scalarized on the baseline
// x86-64 target (slower than libm).

#if RNA_SIMD_VECTOR_EXT
using V4u = std::uint32_t __attribute__((vector_size(16)));
#endif

template <class F>
struct LaneBits {
  using type = std::uint32_t;
};
#if RNA_SIMD_VECTOR_EXT
template <>
struct LaneBits<V4f> {
  using type = V4u;
};
#endif

template <class F>
inline F Splat(float c) {
  if constexpr (std::is_same_v<F, float>) {
    return c;
  } else {
    return F{c, c, c, c};
  }
}

// Cephes-style e^x: n = round(x·log2 e), a two-part Cody–Waite reduction
// r = x − n·ln 2, a degree-5 polynomial for e^r, then a scale by 2^n built
// in the exponent bits. The argument is clamped to ±88 (a compare-select
// that lets NaN through), so 2^n stays within [2^-127, 2^127]; 2^-127 is
// encoded as +0, which flushes e^x to 0 below x ≈ −87.98.
template <class F>
inline F ExpLane(F x) {
  using U = typename LaneBits<F>::type;
  const F hi = Splat<F>(88.0f);
  const F lo = Splat<F>(-88.0f);
  x = x > hi ? hi : x;
  x = x < lo ? lo : x;
  // Adding 1.5·2^23 rounds x·log2 e to the nearest integer n and leaves n
  // in the low mantissa bits of t.
  const F magic = Splat<F>(12582912.0f);
  const F t = x * Splat<F>(1.44269504088896341f) + magic;
  const F n = t - magic;
  F r = x - n * Splat<F>(0.693359375f);
  r = r - n * Splat<F>(-2.12194440e-4f);
  const F z = r * r;
  F p = Splat<F>(1.9875691500e-4f);
  p = p * r + Splat<F>(1.3981999507e-3f);
  p = p * r + Splat<F>(8.3334519073e-3f);
  p = p * r + Splat<F>(4.1665795894e-2f);
  p = p * r + Splat<F>(1.6666665459e-1f);
  p = p * r + Splat<F>(5.0000001201e-1f);
  p = p * z + r + Splat<F>(1.0f);
  const U exponent =
      (std::bit_cast<U>(t) - std::bit_cast<U>(magic) + 127u) << 23;
  return p * std::bit_cast<F>(exponent);
}

// 1 / (1 + e^{-x}) from e = e^{-|x|} ∈ [0, 1], which cannot overflow:
// x ≥ 0 gives 1 / (1 + e), x < 0 gives e / (1 + e) — one division either way.
template <class F>
inline F SigmoidLane(F x) {
  using U = typename LaneBits<F>::type;
  const F ax = std::bit_cast<F>(std::bit_cast<U>(x) & 0x7fffffffu);
  const F e = ExpLane(-ax);
  const F one = Splat<F>(1.0f);
  return (x < Splat<F>(0.0f) ? e : one) / (one + e);
}

// Cephes tanhf on |x|, with the sign restored from x's sign bit (so
// tanh(−0) = −0): an odd polynomial below 0.625, else 1 − 2/(e^{2|x|} + 1),
// which reaches exactly 1 once e^{2|x|} saturates at the exp clamp.
template <class F>
inline F TanhLane(F x) {
  using U = typename LaneBits<F>::type;
  const U bits = std::bit_cast<U>(x);
  const U sign = bits & 0x80000000u;
  const F ax = std::bit_cast<F>(bits ^ sign);
  const F z = ax * ax;
  F p = Splat<F>(-5.70498872745e-3f);
  p = p * z + Splat<F>(2.06390887954e-2f);
  p = p * z + Splat<F>(-5.37397155531e-2f);
  p = p * z + Splat<F>(1.33314422036e-1f);
  p = p * z + Splat<F>(-3.33332819422e-1f);
  const F small = p * z * ax + ax;
  const F one = Splat<F>(1.0f);
  const F large = one - Splat<F>(2.0f) / (ExpLane(ax + ax) + one);
  const F y = ax < Splat<F>(0.625f) ? small : large;
  return std::bit_cast<F>(std::bit_cast<U>(y) | sign);
}

#if RNA_SIMD_VECTOR_EXT
// Whole 4-lane groups through the V4f body, the tail through the float
// body — the same operation sequence, so the split is invisible bitwise.
template <class Body>
inline void WideActivation(const float* x, float* y, std::size_t n,
                           Body body) {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) Store4(y + i, body(Load4(x + i)));
  for (; i < n; ++i) y[i] = body(x[i]);
}
#endif

}  // namespace

void SetDispatch(Dispatch d) {
  g_dispatch.store(d, std::memory_order_relaxed);
}

Dispatch ActiveDispatch() {
  return g_dispatch.load(std::memory_order_relaxed);
}

namespace scalar {

void MatMulNN(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, float alpha, float beta) {
  ApplyBeta(c, m * n, beta);
  // i-k-j with an ascending k accumulation per C element — the order the
  // wide path reproduces.
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = alpha * arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b + kk * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void MatMulNT(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, float alpha, float beta) {
  ApplyBeta(c, m * n, beta);
  // The dot product over k is split into 8 independent partial sums folded
  // by a fixed pairwise tree — simulating the wide path's lanes so both
  // dispatches round identically.
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
      std::size_t kk = 0;
      for (; kk + 8 <= k; kk += 8) {
        for (std::size_t l = 0; l < 8; ++l) {
          lanes[l] += arow[kk + l] * brow[kk + l];
        }
      }
      float s = ReduceLanes(lanes);
      for (; kk < k; ++kk) s += arow[kk] * brow[kk];
      crow[j] += alpha * s;
    }
  }
}

void MatMulTN(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, float alpha, float beta) {
  ApplyBeta(c, m * n, beta);
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* arow = a + kk * m;
    const float* brow = b + kk * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float av = alpha * arow[i];
      if (av == 0.0f) continue;
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void Sigmoid(const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = SigmoidLane(x[i]);
}

void Tanh(const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = TanhLane(x[i]);
}

}  // namespace scalar

void MatMulNN(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, float alpha, float beta) {
#if RNA_SIMD_VECTOR_EXT
  if (ActiveDispatch() == Dispatch::kAuto) {
    WideMatMulNN(a, b, c, m, k, n, alpha, beta);
    return;
  }
#endif
  scalar::MatMulNN(a, b, c, m, k, n, alpha, beta);
}

void MatMulNT(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, float alpha, float beta) {
#if RNA_SIMD_VECTOR_EXT
  if (ActiveDispatch() == Dispatch::kAuto) {
    WideMatMulNT(a, b, c, m, k, n, alpha, beta);
    return;
  }
#endif
  scalar::MatMulNT(a, b, c, m, k, n, alpha, beta);
}

void MatMulTN(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, float alpha, float beta) {
#if RNA_SIMD_VECTOR_EXT
  if (ActiveDispatch() == Dispatch::kAuto) {
    WideMatMulTN(a, b, c, m, k, n, alpha, beta);
    return;
  }
#endif
  scalar::MatMulTN(a, b, c, m, k, n, alpha, beta);
}

void Sigmoid(const float* x, float* y, std::size_t n) {
#if RNA_SIMD_VECTOR_EXT
  if (ActiveDispatch() == Dispatch::kAuto) {
    WideActivation(x, y, n, [](auto v) { return SigmoidLane(v); });
    return;
  }
#endif
  scalar::Sigmoid(x, y, n);
}

void Tanh(const float* x, float* y, std::size_t n) {
#if RNA_SIMD_VECTOR_EXT
  if (ActiveDispatch() == Dispatch::kAuto) {
    WideActivation(x, y, n, [](auto v) { return TanhLane(v); });
    return;
  }
#endif
  scalar::Tanh(x, y, n);
}

}  // namespace rna::common::simd
