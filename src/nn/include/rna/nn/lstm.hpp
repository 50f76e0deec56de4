#pragma once

// Batch-major LSTM layer with exact backpropagation-through-time.
//
// All sequences of a batch advance one time step together. A SequencePack
// ranks them longest first and lays their rows out time-major, so the
// sequences still running at step t are a prefix of those running at t−1.
// Each step is then one input and one recurrent matmul over its n_t rows
// plus one gate pass over an n_t×4H block, and BPTT walks the same blocks
// backwards. Per-batch compute stays *genuinely* proportional to the
// batch's total sequence length, reproducing the "inherent load imbalance"
// of LSTM-on-video training (Figure 2) physically rather than by
// simulation.

#include <span>
#include <vector>

#include "rna/common/rng.hpp"
#include "rna/tensor/tensor.hpp"

namespace rna::nn {

using tensor::Tensor;

/// The variable-length sequences of one batch, packed for batch-major
/// recurrence. Sequences are ranked by length, longest first (ties keep
/// batch order). Rows are time-major: the block of step t holds the n_t
/// sequences still running at t, in rank order, and starts right after the
/// block of step t−1. Storage is compute-arena scratch when an arena is
/// active, so a pack lives for one compute step.
class SequencePack {
 public:
  /// sequences: one T_i×D tensor per sample, T_i ≥ 1, equal D.
  explicit SequencePack(std::span<const Tensor> sequences);

  std::size_t BatchSize() const { return rank_.Size(); }
  std::size_t Steps() const { return active_.Size(); }
  /// Σ T_i: the number of (sequence, step) rows.
  std::size_t Rows() const { return inputs_.Rows(); }
  /// n_t: how many sequences are still running at step t.
  std::size_t Active(std::size_t t) const {
    return static_cast<std::size_t>(active_[t]);
  }

  /// The packed inputs, Rows()×D.
  const Tensor& Inputs() const { return inputs_; }

  /// Rows()×H packed states → B×H: each sequence's row at its last step, in
  /// batch order.
  Tensor GatherLast(const Tensor& packed) const;

  /// The adjoint of GatherLast: B×H → Rows()×H, zero off the last steps.
  Tensor ScatterLast(const Tensor& last) const;

  /// Batch index of the sequence at `rank`.
  std::size_t SequenceAt(std::size_t rank) const {
    return static_cast<std::size_t>(rank_[rank]);
  }

 private:
  /// Calls fn(batch index, packed row) for each sequence's last step.
  template <class Fn>
  void ForEachLast(Fn fn) const;

  Tensor inputs_;
  // Index tables kept as floats so they live in the arena like every other
  // scratch tensor; the constructor checks every index is below 2^24, where
  // floats hold integers exactly.
  Tensor rank_;    // rank → batch index
  Tensor active_;  // step → n_t
};

class LstmLayer {
 public:
  /// Gate weights: Wx (D×4H), Wh (H×4H), b (4H), gate order [i, f, g, o].
  /// The forget-gate bias is initialized to 1.
  LstmLayer(std::size_t input_dim, std::size_t hidden_dim, common::Rng& rng);

  /// Runs the pack's inputs (pack.Rows()×D). Returns every step's hidden
  /// state, pack.Rows()×H in the pack's row order, and caches the unrolled
  /// state for Backward.
  Tensor Forward(const SequencePack& pack);

  /// The forward pass for evaluation: each sequence's last hidden state,
  /// B×H in batch order, bitwise equal to pack.GatherLast(Forward(pack)).
  /// Keeps one step's gates, cells and hidden states instead of every
  /// step's, so its scratch does not grow with the sequence lengths, and
  /// leaves Backward's caches as they are.
  Tensor ForwardLast(const SequencePack& pack) const;

  /// dh: the gradient on every hidden state (pack.Rows()×H), for the pack
  /// of the last Forward. Accumulates parameter gradients; the layer's
  /// inputs are the data, so no input gradient is formed.
  void Backward(const SequencePack& pack, const Tensor& dh);

  std::vector<Tensor*> Params() { return {&wx_, &wh_, &b_}; }
  std::vector<Tensor*> Grads() { return {&dwx_, &dwh_, &db_}; }

 private:
  /// One step over its n rows: z = x·Wx + b + h_prev·Wh (no recurrent term
  /// when h_prev is null), the gates activated in place, c = f·c_prev + i·g
  /// (c_prev = 0 when null), tc = tanh(c) and h = o·tc. It writes tc and h
  /// only after reading h_prev, so they may alias it; c may alias c_prev.
  void Step(const float* x, std::size_t n, const float* h_prev,
            const float* c_prev, float* z, float* c, float* tc,
            float* h) const;

  std::size_t input_dim_;
  std::size_t hidden_dim_;
  Tensor wx_, wh_, b_;
  Tensor dwx_, dwh_, db_;

  // Caches from the last Forward, all in the pack's row order.
  Tensor gates_;      // Rows×4H activated gates [i, f, g, o]
  Tensor cell_;       // Rows×H c_t
  Tensor tanh_cell_;  // Rows×H tanh(c_t)
  Tensor hidden_;     // Rows×H h_t
};

}  // namespace rna::nn
