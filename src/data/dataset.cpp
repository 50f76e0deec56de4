#include "rna/data/dataset.hpp"

#include <algorithm>

#include "rna/common/check.hpp"

namespace rna::data {

Dataset Dataset::Select(std::span<const std::size_t> indices) const {
  Dataset out;
  out.labels.reserve(indices.size());
  if (IsSequence()) {
    out.sequences.reserve(indices.size());
    for (std::size_t idx : indices) {
      out.sequences.push_back(sequences[idx]);
      out.labels.push_back(labels[idx]);
    }
  } else {
    const std::size_t dim = inputs.Cols();
    out.inputs = tensor::Tensor({indices.size(), dim});
    for (std::size_t i = 0; i < indices.size(); ++i) {
      const float* src = inputs.Data() + indices[i] * dim;
      std::copy(src, src + dim, out.inputs.Data() + i * dim);
      out.labels.push_back(labels[indices[i]]);
    }
  }
  return out;
}

std::pair<Dataset, Dataset> Dataset::SplitHoldout(double fraction) const {
  RNA_CHECK_MSG(fraction > 0.0 && fraction < 1.0, "fraction must be in (0,1)");
  RNA_CHECK_MSG(Size() >= 2, "need at least 2 samples to split");
  auto holdout =
      static_cast<std::size_t>(static_cast<double>(Size()) * fraction);
  // floor() yields 0 for small datasets (Size=10 at fraction=0.05), and an
  // empty validation set crashes downstream eval; keep both sides >= 1.
  holdout = std::clamp<std::size_t>(holdout, 1, Size() - 1);
  const std::size_t train_n = Size() - holdout;
  std::vector<std::size_t> train_idx(train_n), val_idx(holdout);
  for (std::size_t i = 0; i < train_n; ++i) train_idx[i] = i;
  for (std::size_t i = 0; i < holdout; ++i) val_idx[i] = train_n + i;
  return {Select(train_idx), Select(val_idx)};
}

}  // namespace rna::data
