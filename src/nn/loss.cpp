#include "rna/nn/loss.hpp"

#include <algorithm>
#include <cmath>

#include "rna/common/check.hpp"
#include "rna/tensor/ops.hpp"

namespace rna::nn {

LossResult SoftmaxCrossEntropy(tensor::Tensor& logits,
                               std::span<const std::int32_t> labels) {
  const std::size_t batch = logits.Rows();
  const std::size_t classes = logits.Cols();
  RNA_CHECK_MSG(labels.size() == batch, "labels/logits batch mismatch");

  LossResult result;
  tensor::SoftmaxRows(logits);
  double total_loss = 0.0;
  for (std::size_t i = 0; i < batch; ++i) {
    const auto label = static_cast<std::size_t>(labels[i]);
    RNA_CHECK_MSG(label < classes, "label out of range");
    const float p = std::max(logits.At(i, label), 1e-12f);
    total_loss -= std::log(p);

    const float* row = logits.Data() + i * classes;
    std::size_t argmax = 0;
    for (std::size_t c = 1; c < classes; ++c) {
      if (row[c] > row[argmax]) argmax = c;
    }
    if (argmax == label) ++result.correct;
  }
  result.loss = total_loss / static_cast<double>(batch);
  return result;
}

void SoftmaxCrossEntropyGrad(tensor::Tensor& probs,
                             std::span<const std::int32_t> labels) {
  const std::size_t batch = probs.Rows();
  RNA_CHECK_MSG(labels.size() == batch, "labels/logits batch mismatch");
  for (std::size_t i = 0; i < batch; ++i) {
    const auto label = static_cast<std::size_t>(labels[i]);
    RNA_CHECK_MSG(label < probs.Cols(), "label out of range");
    probs.At(i, label) -= 1.0f;
  }
  const auto inv_batch = static_cast<float>(1.0 / static_cast<double>(batch));
  tensor::Scale(probs.Flat(), inv_batch);
}

}  // namespace rna::nn
