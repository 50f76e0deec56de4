#pragma once

// Synthetic dataset generators replacing the paper's real datasets (see the
// substitution table in DESIGN.md):
//   Gaussian clusters / two spirals  → CIFAR-10 / ImageNet classification
//   variable-length sequences        → UCF101 video features, WMT17 sentences
//
// The sequence-length model reproduces the shape of Figure 2(a): a clamped
// log-normal calibrated to the reported mean 186, stddev 97.7 and range
// [29, 1776] (optionally rescaled so tests stay fast).

#include <cstdint>

#include "rna/common/rng.hpp"
#include "rna/data/dataset.hpp"

namespace rna::data {

/// Clamped log-normal sequence-length model.
struct LengthModel {
  double mean = 186.0;
  double stddev = 97.7;
  std::size_t min_len = 29;
  std::size_t max_len = 1776;

  /// Returns a model with every parameter divided by `factor` (min length
  /// floored at 2) — used to scale the UCF101 distribution down for tests.
  LengthModel Scaled(double factor) const;

  std::size_t Sample(common::Rng& rng) const;
};

/// The paper's video-length distribution (Figure 2a), scaled down by
/// `scale` to keep CPU-only LSTM training tractable.
LengthModel VideoLengths(double scale = 8.0);

/// A sentence-length model for the Transformer stand-in (WMT17-like:
/// shorter, still heavy-tailed).
LengthModel SentenceLengths();

/// `classes` isotropic Gaussian blobs in `dim` dimensions. Class centers sit
/// on a scaled simplex; `spread` controls overlap (higher = harder).
Dataset MakeGaussianClusters(std::size_t samples, std::size_t dim,
                             std::size_t classes, double spread,
                             std::uint64_t seed);

/// Two interleaved spirals lifted into `dim` dimensions (first two carry the
/// signal, the rest are noise). A classic non-linearly-separable benchmark.
Dataset MakeTwoSpirals(std::size_t samples, std::size_t dim, double noise,
                       std::uint64_t seed);

/// Variable-length sequence classification. Each class c has a latent
/// pattern p_c; sample elements are x_t = p_c · s(t) + noise, where s(t) is a
/// class-specific slow oscillation, so the label is recoverable from the
/// sequence dynamics by an LSTM or attention model.
Dataset MakeSequenceDataset(std::size_t samples, std::size_t input_dim,
                            std::size_t classes, const LengthModel& lengths,
                            double noise, std::uint64_t seed);

}  // namespace rna::data
