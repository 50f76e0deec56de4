#pragma once

// A minimal dense float tensor: contiguous row-major storage with an inline
// shape (max rank 4 — nothing in the models needs more). This is the data
// type flowing through the from-scratch neural network library and,
// flattened, through the collectives.
//
// Storage comes from the thread's active Arena when one is in scope (see
// arena.hpp) and from the heap otherwise. The shape itself never heap-
// allocates, so constructing a Tensor under an arena scope performs zero
// heap allocations — the property the steady-state training test enforces.
//
// Lifetime rules for arena-backed tensors:
//   * A tensor allocated under a StepScope must not be read after the
//     scope's ResetScratch() — its storage is bump-reused next step. Layer
//     caches obey this because every Forward rewrites them before use.
//   * Copy construction/assignment while an arena is active always takes
//     fresh arena storage (never reuses in place), so a stale destination
//     can never alias live data.
//   * The destructor never touches arena storage; destroying an arena-backed
//     tensor after its arena reset (or death) is safe.

#include <array>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>

#include "rna/common/check.hpp"
#include "rna/tensor/arena.hpp"

namespace rna::tensor {

/// Inline tensor shape: up to kMaxRank dimensions, no heap storage.
class Shape {
 public:
  static constexpr std::size_t kMaxRank = 4;

  Shape() = default;
  Shape(std::initializer_list<std::size_t> dims) : rank_(dims.size()) {
    RNA_CHECK_MSG(dims.size() <= kMaxRank, "tensor rank exceeds kMaxRank");
    std::size_t i = 0;
    for (std::size_t d : dims) dims_[i++] = d;
  }

  std::size_t Rank() const { return rank_; }
  std::size_t operator[](std::size_t i) const { return dims_[i]; }

  /// Total element count; a rank-0 shape is empty.
  std::size_t Elements() const {
    if (rank_ == 0) return 0;
    std::size_t n = 1;
    for (std::size_t i = 0; i < rank_; ++i) n *= dims_[i];
    return n;
  }

  const std::size_t* begin() const { return dims_.data(); }
  const std::size_t* end() const { return dims_.data() + rank_; }

  // Unused slots are always zero, so member-wise comparison is exact.
  bool operator==(const Shape&) const = default;

 private:
  std::array<std::size_t, kMaxRank> dims_{};
  std::size_t rank_ = 0;
};

class Tensor {
 public:
  Tensor() = default;

  /// Zero-initialized tensor of the given shape. Storage comes from the
  /// thread's active arena (per-step scratch) or the heap when no arena is
  /// set.
  explicit Tensor(tensor::Shape shape);

  /// Builds a tensor from existing data; data.size() must match the shape.
  Tensor(tensor::Shape shape, std::span<const float> data);
  Tensor(tensor::Shape shape, std::initializer_list<float> data)
      : Tensor(shape, std::span<const float>(data.begin(), data.size())) {}

  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(Tensor&& other) noexcept;
  ~Tensor() = default;

  const tensor::Shape& Shape() const { return shape_; }
  std::size_t Rank() const { return shape_.Rank(); }
  std::size_t Size() const { return size_; }
  bool Empty() const { return size_ == 0; }

  /// True when the storage lives in an arena (tests use this to pin the
  /// allocation-routing contract).
  bool ArenaBacked() const { return arena_backed_; }

  /// Dimensions for the common 2-D (rows × cols) case. A rank-1 tensor is
  /// treated as a single row.
  std::size_t Rows() const;
  std::size_t Cols() const;

  float* Data() { return data_; }
  const float* Data() const { return data_; }
  std::span<float> Flat() { return {data_, size_}; }
  std::span<const float> Flat() const { return {data_, size_}; }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// 2-D element access with bounds checking.
  float& At(std::size_t r, std::size_t c);
  float At(std::size_t r, std::size_t c) const;

  void Fill(float value);
  void Zero() { Fill(0.0f); }

  /// Reshape preserving the element count.
  void Reshape(tensor::Shape shape);

  /// Sum of all elements / squared L2 norm — used by tests and invariants.
  double Sum() const;
  double SquaredNorm() const;

  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

  std::string ShapeString() const;

 private:
  void AllocateStorage(std::size_t n, bool zero);
  void Release();

  tensor::Shape shape_;
  float* data_ = nullptr;
  std::size_t size_ = 0;
  bool arena_backed_ = false;
  std::unique_ptr<float[]> owned_;  // engaged iff heap-backed and non-empty
};

}  // namespace rna::tensor
