#pragma once

// In-memory datasets, the stand-in for the paper's ImageNet/UCF101. Each
// worker reads its own partition through a zero-copy data::ShardView and
// batches it with a data::BatchGenerator.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "rna/tensor/tensor.hpp"

namespace rna::data {

struct Dataset {
  // Exactly one of `inputs` (dense N×D) or `sequences` (per-sample T_i×D)
  // is populated.
  tensor::Tensor inputs;
  std::vector<tensor::Tensor> sequences;
  std::vector<std::int32_t> labels;

  bool IsSequence() const { return !sequences.empty(); }
  std::size_t Size() const { return labels.size(); }

  /// Splits off the last `fraction` of samples as a validation set.
  std::pair<Dataset, Dataset> SplitHoldout(double fraction) const;

 private:
  Dataset Select(std::span<const std::size_t> indices) const;
};

/// How batches are assembled from a worker's shard (data::BatchGenerator).
enum class SamplingMode {
  /// Uniform with replacement — mini-batch SGD's i.i.d. sampling.
  kUniform,
  /// Sequences of similar length are batched together (the standard
  /// bucketed batching for RNN/Transformer training). This is what makes
  /// per-batch compute follow the per-sample length distribution — the
  /// inherent load imbalance of Figure 2(b). Falls back to kUniform for
  /// dense datasets.
  kLengthBucketed,
};

}  // namespace rna::data
