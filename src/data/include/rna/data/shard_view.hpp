#pragma once

// Zero-copy dataset views for the streaming data plane. A ShardView is a
// (dataset pointer, index list) pair: sample storage stays in the one
// immutable Dataset the run owns, and every worker's "shard" is just a list
// of global sample indices into it. This replaces the Dataset::Shard →
// Select deep copy that replicated the dataset ×world — at 1000-worker
// scale the per-worker footprint is now a few dozen bytes of indices, not a
// copy of every sample.
//
// Lifetime contract: the viewed Dataset must outlive the view. Every
// runner keeps the training/validation datasets alive by const reference
// for the whole run, so views handed to workers and monitors are safe.

#include <cstdint>
#include <span>
#include <vector>

#include "rna/data/dataset.hpp"
#include "rna/nn/network.hpp"

namespace rna::data {

class ShardView {
 public:
  ShardView() = default;

  /// View over every sample, in dataset order.
  static ShardView All(const Dataset& dataset);

  /// Round-robin shard: worker `rank` sees samples with index ≡ rank
  /// (mod world) — deterministic, disjoint, near-equal in count. When
  /// world > dataset.Size() the strided shard would be empty (the
  /// 1000-worker-world-over-a-small-dataset edge); instead of producing an
  /// unusable shard the view falls back to sharing every sample
  /// (SharedFallback() reports it), so overflow ranks train on the full
  /// dataset rather than aborting.
  static ShardView Strided(const Dataset& dataset, std::size_t rank,
                           std::size_t world);

  bool Valid() const { return data_ != nullptr; }
  std::size_t Size() const { return indices_.size(); }
  bool IsSequence() const { return data_->IsSequence(); }
  const Dataset& Owner() const { return *data_; }

  /// True when the strided shard was empty and the view shares all samples.
  bool SharedFallback() const { return shared_fallback_; }

  std::size_t GlobalIndex(std::size_t i) const { return indices_[i]; }
  std::int32_t Label(std::size_t i) const { return data_->labels[indices_[i]]; }

  /// The viewed sample's sequence tensor — the dataset's own storage, not a
  /// copy (tests pin the Data() pointer identity).
  const tensor::Tensor& Sequence(std::size_t i) const {
    return data_->sequences[indices_[i]];
  }
  std::size_t SequenceLength(std::size_t i) const {
    return Sequence(i).Rows();
  }

  /// Longest viewed sequence (nullptr for dense/empty views) — the
  /// worst-case sample the arena warm-up batch is built from.
  const tensor::Tensor* LongestSequence() const;

  /// Feature dimension of dense datasets.
  std::size_t InputDim() const { return data_->inputs.Cols(); }

  /// Assembles a batch from *local* view indices (each in [0, Size())).
  nn::Batch MakeBatch(std::span<const std::size_t> local) const;

  /// Batch of the contiguous local range [start, start + count) — the
  /// monitor's sliced eval without a scratch index vector per slice.
  nn::Batch MakeBatchRange(std::size_t start, std::size_t count) const;

  /// Bytes this view adds on top of the shared dataset (the index list).
  /// The zero-copy accounting in bench_data sums this across a 1000-worker
  /// world and holds it far below one dataset's sample bytes.
  std::size_t IndexBytes() const {
    return indices_.capacity() * sizeof(std::size_t);
  }

 private:
  ShardView(const Dataset* data, std::vector<std::size_t> indices,
            bool shared_fallback)
      : data_(data),
        indices_(std::move(indices)),
        shared_fallback_(shared_fallback) {}

  const Dataset* data_ = nullptr;
  std::vector<std::size_t> indices_;
  bool shared_fallback_ = false;
};

/// Total sample-payload bytes of a dataset (dense matrix or the sum of the
/// sequence tensors) — the denominator of the shared-storage accounting.
std::size_t DatasetSampleBytes(const Dataset& dataset);

}  // namespace rna::data
