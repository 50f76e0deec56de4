#pragma once

// Vectorized kernels shared by the collective/fabric data plane and the
// compute plane. The elementwise family (AddInto/ScaleInto/…) covers the
// ring reduce-scatter's chunk accumulate, the W = 1/Σw re-weighting of the
// partial allreduce, and the staleness-weighted gradient combine. Every
// elementwise kernel has no cross-lane reduction, so the wide path is
// bitwise identical to the scalar reference — tests/test_dataplane.cpp
// cross-checks this per kernel and end-to-end through the collectives.
//
// The matmul family (MatMulNN/NT/TN, implemented in simd.cpp) extends the
// same contract to the compute plane: each variant has a scalar reference
// and a register-tiled vectorized path whose per-element accumulation order
// is *identical* to the reference, so vectorized and scalar dispatch are
// bitwise equal (tests/test_tensor.cpp sweeps awkward shapes to pin this):
//   * NN and TN accumulate each C element over ascending k with one add per
//     k and skip alpha·a == 0 contributions in both paths — the wide path
//     holds a chunk of up to 32 floats of one C row in registers across
//     the whole k loop, which changes no element's k order.
//   * NT splits the k reduction into 8 independent lanes combined by a
//     fixed pairwise tree; the scalar reference simulates the same lanes.
//
// The activation family (Sigmoid/Tanh, also in simd.cpp) is the compute
// plane's only sigmoid and tanh: the LSTM gate pass and the nn::Sigmoid /
// nn::Tanh layers all call it. Both are built on a Cephes-style exp
// polynomial written once, lane-generically: the scalar reference is that
// body instantiated at float and the wide path the same body at 4 × f32, so
// every lane runs the reference's operation sequence and rounds identically
// (tests/test_dataplane.cpp pins every tail length, the special values and
// a ≤ 2 ulp bound against a double reference).
//
// The wide path uses GCC/Clang vector extensions (4 × f32 for every family,
// compiled to SSE/NEON/whatever the target offers) with memcpy-based
// unaligned load/store, so it needs no intrinsics header and works on any
// target the repo builds on. `SetDispatch(Dispatch::kScalar)` forces the scalar
// reference at runtime — the hook the equivalence suite and the kernel
// microbench both use.

#include <atomic>
#include <cstddef>
#include <cstring>
#include <span>

namespace rna::common::simd {

enum class Dispatch {
  kAuto,    ///< wide path (default)
  kScalar,  ///< force the scalar reference (tests, microbench baselines)
};

/// Process-global dispatch switch; kAuto unless a test/bench overrides it.
void SetDispatch(Dispatch d);
Dispatch ActiveDispatch();

namespace scalar {

/// dst[i] += src[i]
inline void AddInto(std::span<float> dst, std::span<const float> src) {
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] += src[i];
}

/// dst[i] *= s
inline void ScaleInto(std::span<float> dst, float s) {
  for (float& x : dst) x *= s;
}

/// dst[i] += w * src[i]
inline void WeightedAccumulate(std::span<float> dst,
                               std::span<const float> src, float w) {
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] += w * src[i];
}

/// dst[i] = s * src[i]
inline void ScaledCopy(std::span<float> dst, std::span<const float> src,
                       float s) {
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = s * src[i];
}

/// dst[i] = 0.5 * (dst[i] + src[i]) — the PS kAverage fold. Add-then-halve
/// order is part of the contract (multiplying by 0.5 is exact, so this is
/// the correctly-rounded midpoint except at the subnormal edge).
inline void AverageInto(std::span<float> dst, std::span<const float> src) {
  for (std::size_t i = 0; i < dst.size(); ++i)
    dst[i] = 0.5f * (dst[i] + src[i]);
}

}  // namespace scalar

namespace detail {

#if defined(__GNUC__) || defined(__clang__)
#define RNA_SIMD_VECTOR_EXT 1
// Every wide path runs 4 × f32 vectors: on the baseline x86-64 target one
// is an SSE register, while an 8-lane vector is split into halves that
// round-trip through the stack.
using V4f = float __attribute__((vector_size(16)));
constexpr std::size_t kLanes = 4;

inline V4f Load4(const float* p) {
  V4f v;
  std::memcpy(&v, p, sizeof(V4f));
  return v;
}

inline void Store4(float* p, V4f v) { std::memcpy(p, &v, sizeof(V4f)); }
#else
#define RNA_SIMD_VECTOR_EXT 0
#endif

#if RNA_SIMD_VECTOR_EXT
inline void AddInto(float* dst, const float* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    Store4(dst + i, Load4(dst + i) + Load4(src + i));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

inline void ScaleInto(float* dst, float s, std::size_t n) {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    Store4(dst + i, Load4(dst + i) * s);
  }
  for (; i < n; ++i) dst[i] *= s;
}

inline void WeightedAccumulate(float* dst, const float* src, float w,
                               std::size_t n) {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    Store4(dst + i, Load4(dst + i) + Load4(src + i) * w);
  }
  for (; i < n; ++i) dst[i] += w * src[i];
}

inline void ScaledCopy(float* dst, const float* src, float s, std::size_t n) {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    Store4(dst + i, Load4(src + i) * s);
  }
  for (; i < n; ++i) dst[i] = s * src[i];
}

inline void AverageInto(float* dst, const float* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    Store4(dst + i, (Load4(dst + i) + Load4(src + i)) * 0.5f);
  }
  for (; i < n; ++i) dst[i] = 0.5f * (dst[i] + src[i]);
}
#endif  // RNA_SIMD_VECTOR_EXT

}  // namespace detail

/// dst[i] += src[i]; spans must be equal-sized (size checked by caller).
inline void AddInto(std::span<float> dst, std::span<const float> src) {
#if RNA_SIMD_VECTOR_EXT
  if (ActiveDispatch() == Dispatch::kAuto) {
    detail::AddInto(dst.data(), src.data(), dst.size());
    return;
  }
#endif
  scalar::AddInto(dst, src);
}

/// dst[i] *= s
inline void ScaleInto(std::span<float> dst, float s) {
#if RNA_SIMD_VECTOR_EXT
  if (ActiveDispatch() == Dispatch::kAuto) {
    detail::ScaleInto(dst.data(), s, dst.size());
    return;
  }
#endif
  scalar::ScaleInto(dst, s);
}

/// dst[i] += w * src[i]
inline void WeightedAccumulate(std::span<float> dst,
                               std::span<const float> src, float w) {
#if RNA_SIMD_VECTOR_EXT
  if (ActiveDispatch() == Dispatch::kAuto) {
    detail::WeightedAccumulate(dst.data(), src.data(), w, dst.size());
    return;
  }
#endif
  scalar::WeightedAccumulate(dst, src, w);
}

/// dst[i] = s * src[i]
inline void ScaledCopy(std::span<float> dst, std::span<const float> src,
                       float s) {
#if RNA_SIMD_VECTOR_EXT
  if (ActiveDispatch() == Dispatch::kAuto) {
    detail::ScaledCopy(dst.data(), src.data(), s, dst.size());
    return;
  }
#endif
  scalar::ScaledCopy(dst, src, s);
}

/// dst[i] = 0.5 * (dst[i] + src[i])
inline void AverageInto(std::span<float> dst, std::span<const float> src) {
#if RNA_SIMD_VECTOR_EXT
  if (ActiveDispatch() == Dispatch::kAuto) {
    detail::AverageInto(dst.data(), src.data(), dst.size());
    return;
  }
#endif
  scalar::AverageInto(dst, src);
}

// ---- dense matmul kernels (row-major, dispatching like the above) ----
//
// Shapes are caller-checked; these operate on raw pointers so both the
// tensor ops layer and the LSTM's strided row updates can use them.

/// C(m×n) = alpha · A(m×k) · B(k×n) + beta · C.
void MatMulNN(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, float alpha, float beta);

/// C(m×n) = alpha · A(m×k) · Bᵀ + beta · C, with B stored n×k.
void MatMulNT(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, float alpha, float beta);

/// C(m×n) = alpha · Aᵀ · B + beta · C, with A stored k×m and B stored k×n.
void MatMulTN(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, float alpha, float beta);

// ---- activation kernels (dispatching like the above) ----
//
// y may alias x (the LSTM applies its gates in place). Saturation: the exp
// argument is clamped to ±88, so sigmoid is exactly 0 or 1 and tanh exactly
// ±1 once |x| ≳ 88; ±0 map to 0.5 and ±0, and NaN propagates.

/// y[i] = 1 / (1 + e^{-x[i]}) for i < n.
void Sigmoid(const float* x, float* y, std::size_t n);

/// y[i] = tanh(x[i]) for i < n.
void Tanh(const float* x, float* y, std::size_t n);

namespace scalar {

/// Scalar references with the dispatch-independent accumulation orders
/// documented above; the microbench baselines and equivalence tests call
/// these directly.
void MatMulNN(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, float alpha, float beta);
void MatMulNT(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, float alpha, float beta);
void MatMulTN(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, float alpha, float beta);
void Sigmoid(const float* x, float* y, std::size_t n);
void Tanh(const float* x, float* y, std::size_t n);

}  // namespace scalar

}  // namespace rna::common::simd
