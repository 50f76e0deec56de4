#include "rna/tensor/tensor.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

namespace rna::tensor {

void Tensor::AllocateStorage(std::size_t n, bool zero) {
  size_ = n;
  if (n == 0) {
    data_ = nullptr;
    return;
  }
  if (Arena* arena = Arena::Current()) {
    arena_backed_ = true;
    data_ = arena->Allocate(n);
  } else {
    owned_.reset(new float[n]);
    data_ = owned_.get();
  }
  if (zero) std::memset(data_, 0, n * sizeof(float));
}

void Tensor::Release() {
  owned_.reset();
  data_ = nullptr;
  size_ = 0;
  arena_backed_ = false;
}

Tensor::Tensor(tensor::Shape shape) : shape_(shape) {
  AllocateStorage(shape_.Elements(), /*zero=*/true);
}

Tensor::Tensor(tensor::Shape shape, std::span<const float> data)
    : shape_(shape) {
  RNA_CHECK_MSG(data.size() == shape_.Elements(),
                "data size does not match shape");
  AllocateStorage(shape_.Elements(), /*zero=*/false);
  if (size_ > 0) std::memcpy(data_, data.data(), size_ * sizeof(float));
}

Tensor::Tensor(const Tensor& other) : shape_(other.shape_) {
  AllocateStorage(other.size_, /*zero=*/false);
  if (size_ > 0) std::memcpy(data_, other.data_, size_ * sizeof(float));
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  shape_ = other.shape_;
  // Reuse in place only when this tensor owns matching heap storage and no
  // arena is active; an arena-backed destination may hold a stale pointer
  // from before a ResetScratch, so it always takes fresh storage.
  const bool reuse = owned_ != nullptr && size_ == other.size_ &&
                     Arena::Current() == nullptr;
  if (!reuse) {
    Release();
    AllocateStorage(other.size_, /*zero=*/false);
  }
  if (size_ > 0) std::memcpy(data_, other.data_, size_ * sizeof(float));
  return *this;
}

Tensor::Tensor(Tensor&& other) noexcept
    : shape_(other.shape_),
      data_(other.data_),
      size_(other.size_),
      arena_backed_(other.arena_backed_),
      owned_(std::move(other.owned_)) {
  other.shape_ = tensor::Shape();
  other.data_ = nullptr;
  other.size_ = 0;
  other.arena_backed_ = false;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  shape_ = other.shape_;
  owned_ = std::move(other.owned_);
  data_ = other.data_;
  size_ = other.size_;
  arena_backed_ = other.arena_backed_;
  other.shape_ = tensor::Shape();
  other.data_ = nullptr;
  other.size_ = 0;
  other.arena_backed_ = false;
  return *this;
}

std::size_t Tensor::Rows() const {
  if (shape_.Rank() == 0) return 0;
  if (shape_.Rank() == 1) return 1;
  return shape_[0];
}

std::size_t Tensor::Cols() const {
  if (shape_.Rank() == 0) return 0;
  if (shape_.Rank() == 1) return shape_[0];
  // Collapse trailing dimensions: (d0, d1, ..., dn) -> d0 × (d1·...·dn).
  std::size_t c = 1;
  for (std::size_t i = 1; i < shape_.Rank(); ++i) c *= shape_[i];
  return c;
}

float& Tensor::At(std::size_t r, std::size_t c) {
  RNA_CHECK(r < Rows() && c < Cols());
  return data_[r * Cols() + c];
}

float Tensor::At(std::size_t r, std::size_t c) const {
  RNA_CHECK(r < Rows() && c < Cols());
  return data_[r * Cols() + c];
}

void Tensor::Fill(float value) { std::fill(data_, data_ + size_, value); }

void Tensor::Reshape(tensor::Shape shape) {
  RNA_CHECK_MSG(shape.Elements() == size_,
                "reshape must preserve element count");
  shape_ = shape;
}

void Tensor::MoveInto(std::span<float> storage) {
  RNA_CHECK_MSG(storage.size() == size_, "storage size does not match tensor");
  if (size_ > 0) std::memcpy(storage.data(), data_, size_ * sizeof(float));
  owned_.reset();
  arena_backed_ = false;
  data_ = storage.data();
}

double Tensor::Sum() const {
  double s = 0.0;
  for (std::size_t i = 0; i < size_; ++i) s += data_[i];
  return s;
}

double Tensor::SquaredNorm() const {
  double s = 0.0;
  for (std::size_t i = 0; i < size_; ++i) {
    s += static_cast<double>(data_[i]) * data_[i];
  }
  return s;
}

std::string Tensor::ShapeString() const {
  std::ostringstream out;
  out << "(";
  for (std::size_t i = 0; i < shape_.Rank(); ++i) {
    if (i) out << ", ";
    out << shape_[i];
  }
  out << ")";
  return out.str();
}

}  // namespace rna::tensor
