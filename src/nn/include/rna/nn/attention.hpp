#pragma once

// Single-head scaled-dot-product self-attention over one sequence, with
// exact backpropagation. Stands in for the paper's Transformer workload:
// per-sample compute is quadratic in sequence length, so variable-length
// "sentences" produce the batch-time imbalance the paper studies on WMT17.

#include <vector>

#include "rna/common/rng.hpp"
#include "rna/tensor/tensor.hpp"

namespace rna::nn {

using tensor::Tensor;

class AttentionBlock {
 public:
  /// Projections Wq, Wk, Wv are D×A.
  AttentionBlock(std::size_t input_dim, std::size_t attn_dim,
                 common::Rng& rng);

  /// x: T×D → output T×A, where row t attends over the whole sequence.
  Tensor Forward(const Tensor& x);

  /// dy: T×A, for the sequence of the last Forward. Accumulates the
  /// projection gradients; the block's inputs are the data, so no input
  /// gradient is formed.
  void Backward(const Tensor& dy);

  std::vector<Tensor*> Params() { return {&wq_, &wk_, &wv_}; }
  std::vector<Tensor*> Grads() { return {&dwq_, &dwk_, &dwv_}; }

  std::size_t AttnDim() const { return attn_dim_; }

 private:
  std::size_t input_dim_;
  std::size_t attn_dim_;
  Tensor wq_, wk_, wv_;
  Tensor dwq_, dwk_, dwv_;

  // Caches from the last Forward.
  Tensor input_;              // T×D
  Tensor q_, k_, v_;          // T×A
  Tensor attn_;               // T×T row-softmax weights
};

}  // namespace rna::nn
