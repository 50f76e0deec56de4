#pragma once

// Softmax + cross-entropy head, in two in-place steps: the loss turns the
// logits into probabilities, and training alone goes on to turn those into
// the numerically stable (softmax − one-hot) / batch gradient. Evaluation
// reads only the loss and the hits, so it makes no gradient copy.

#include <cstdint>
#include <span>

#include "rna/tensor/tensor.hpp"

namespace rna::nn {

struct LossResult {
  double loss = 0.0;        ///< mean cross-entropy over the batch
  std::size_t correct = 0;  ///< argmax hits
};

/// logits: B×C, replaced by their row softmax; labels: B class indices in
/// [0, C). Takes a span (not a vector) so the per-sample one-label call
/// sites in the attention model stay allocation-free.
LossResult SoftmaxCrossEntropy(tensor::Tensor& logits,
                               std::span<const std::int32_t> labels);

/// probs: the softmax SoftmaxCrossEntropy left, replaced by dL/dlogits
/// (probs − one-hot, divided by the batch).
void SoftmaxCrossEntropyGrad(tensor::Tensor& probs,
                             std::span<const std::int32_t> labels);

}  // namespace rna::nn
