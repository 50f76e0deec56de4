#pragma once

// Feed-forward layer primitives with exact backpropagation. Gradients
// *accumulate* across Backward calls until ZeroGrads() — the attention
// models process one sample at a time and rely on this to form batch
// gradients.

#include <memory>
#include <span>
#include <vector>

#include "rna/common/rng.hpp"
#include "rna/tensor/tensor.hpp"

namespace rna::nn {

using tensor::Tensor;

class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output and caches whatever Backward needs.
  virtual Tensor Forward(const Tensor& x) = 0;

  /// Given dL/d(output), accumulates parameter gradients and returns
  /// dL/d(input). Must follow a matching Forward call.
  virtual Tensor Backward(const Tensor& dy) = 0;

  virtual std::vector<Tensor*> Params() { return {}; }
  virtual std::vector<Tensor*> Grads() { return {}; }

  void ZeroGrads();

  /// Toggles training-only behaviour (dropout). Default is training mode.
  virtual void SetTraining(bool training) { training_ = training; }

 protected:
  bool training_ = true;
};

/// Fully connected: Y = X·W + b.
class Dense : public Layer {
 public:
  Dense(std::size_t in, std::size_t out, common::Rng& rng);

  Tensor Forward(const Tensor& x) override;
  Tensor Backward(const Tensor& dy) override;
  /// Y = X·W + b for `rows` rows of x (rows × in) into y (rows × out),
  /// with Forward's operations and no cache: evaluation's forward.
  void ForwardInto(const float* x, std::size_t rows, float* y) const;
  std::vector<Tensor*> Params() override { return {&w_, &b_}; }
  std::vector<Tensor*> Grads() override { return {&dw_, &db_}; }

  std::size_t InDim() const { return in_; }
  std::size_t OutDim() const { return out_; }

 private:
  std::size_t in_;
  std::size_t out_;
  Tensor w_, b_, dw_, db_;
  Tensor cached_input_;
};

class Relu : public Layer {
 public:
  Tensor Forward(const Tensor& x) override;
  Tensor Backward(const Tensor& dy) override;
  /// Forward's activation in place, with no cache.
  static void Apply(std::span<float> x);

 private:
  Tensor cached_input_;
};

class Tanh : public Layer {
 public:
  Tensor Forward(const Tensor& x) override;
  Tensor Backward(const Tensor& dy) override;

 private:
  Tensor cached_output_;
};

class Sigmoid : public Layer {
 public:
  Tensor Forward(const Tensor& x) override;
  Tensor Backward(const Tensor& dy) override;

 private:
  Tensor cached_output_;
};

/// Inverted dropout; identity in evaluation mode.
class Dropout : public Layer {
 public:
  Dropout(double rate, std::uint64_t seed);

  Tensor Forward(const Tensor& x) override;
  Tensor Backward(const Tensor& dy) override;

 private:
  double rate_;
  common::Rng rng_;
  Tensor mask_;
};

}  // namespace rna::nn
