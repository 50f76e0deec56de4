#pragma once

// Trainable models exposed behind one interface so the distributed training
// harness and all synchronization protocols are model-agnostic. A network
// keeps its parameters in one contiguous block and its gradients in
// another, and every layer tensor is a view of its slice (marian's
// Parameters idiom). The two blocks are the flat vectors the stage, the
// collectives, the parameter server and RNA exchange (the analogue of the
// paper's CPU-side gradient buffers), so a step reads parameters into the
// model and stages gradients out of it with no layout change between.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "rna/common/rng.hpp"
#include "rna/nn/attention.hpp"
#include "rna/nn/layer.hpp"
#include "rna/nn/loss.hpp"
#include "rna/nn/lstm.hpp"
#include "rna/tensor/arena.hpp"
#include "rna/tensor/tensor.hpp"

namespace rna::nn {

/// One mini-batch. Dense models use `inputs`; sequence models use
/// `sequences` (one T_i×D tensor per sample, lengths may differ).
struct Batch {
  tensor::Tensor inputs;                  // B×D (dense models)
  std::vector<tensor::Tensor> sequences;  // per-sample T_i×D (sequence models)
  std::vector<std::int32_t> labels;

  std::size_t Size() const {
    return sequences.empty() ? inputs.Rows() : sequences.size();
  }
};

struct BatchResult {
  double loss = 0.0;
  std::size_t correct = 0;
  std::size_t total = 0;

  double Accuracy() const {
    return total ? static_cast<double>(correct) / static_cast<double>(total)
                 : 0.0;
  }
};

class Network {
 public:
  virtual ~Network() = default;

  /// Runs forward + backward on the batch; gradients are *fresh* (zeroed at
  /// entry), averaged over the batch.
  virtual BatchResult ForwardBackward(const Batch& batch) = 0;

  /// Forward only (evaluation mode, dropout disabled).
  virtual BatchResult Evaluate(const Batch& batch) = 0;

  /// The layer tensors, each a view of its slice of ParamsFlat() /
  /// GradsFlat(), in block order.
  virtual std::vector<tensor::Tensor*> Params() = 0;
  virtual std::vector<tensor::Tensor*> Grads() = 0;
  virtual std::string Name() const = 0;

  std::size_t ParamCount() const { return params_.size(); }
  /// The parameter and gradient blocks, ParamCount() floats each. Writing
  /// ParamsFlat() sets the parameters the next step computes at;
  /// GradsFlat() holds the last ForwardBackward's gradient.
  std::span<float> ParamsFlat() { return params_; }
  std::span<float> GradsFlat() { return grads_; }

  /// Every Network owns a per-worker compute arena; ForwardBackward and
  /// Evaluate run under a step scope so all per-op temporaries are arena
  /// scratch, released in O(1) when the step ends. Disabling the arena
  /// restores per-call heap allocation — the naive pre-arena path the
  /// equivalence tests compare against.
  void EnableArena(bool enabled) { arena_enabled_ = enabled; }
  bool ArenaEnabled() const { return arena_enabled_; }
  tensor::Arena& ComputeArena() { return arena_; }

 protected:
  /// RAII wrapper the classifiers open around one compute step: activates
  /// the arena (when enabled) and resets its scratch region on exit.
  class ComputeScope {
   public:
    explicit ComputeScope(Network& net) {
      if (net.arena_enabled_) scope_.emplace(net.arena_);
    }

   private:
    std::optional<tensor::Arena::StepScope> scope_;
  };

  /// Moves every Params() and Grads() tensor into its slice of the two
  /// blocks. Each classifier calls it at the end of its own constructor,
  /// where Params() and Grads() already dispatch to its overrides.
  void Flatten();

  /// Zeroes the gradient block: one fill, at the start of every training
  /// step.
  void ZeroGrads();

 private:
  tensor::Arena arena_;
  bool arena_enabled_ = true;
  std::vector<float> params_;
  std::vector<float> grads_;
};

/// MLP classifier: Dense/ReLU stack + softmax cross-entropy. The repo's
/// stand-in for the paper's ResNet50/VGG16 image classifiers (see DESIGN.md).
class MlpClassifier : public Network {
 public:
  /// dims = {input, hidden..., classes}.
  MlpClassifier(std::vector<std::size_t> dims, std::uint64_t seed,
                std::string name = "mlp");

  BatchResult ForwardBackward(const Batch& batch) override;
  BatchResult Evaluate(const Batch& batch) override;
  std::vector<tensor::Tensor*> Params() override;
  std::vector<tensor::Tensor*> Grads() override;
  std::string Name() const override { return name_; }

 private:
  tensor::Tensor ForwardLogits(const Batch& batch);

  std::string name_;
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<Dense*> dense_;  ///< the Dense layers of layers_, in order
};

/// LSTM sequence classifier: LSTM → Dropout → Dense head; the stand-in for
/// the paper's LSTM-on-UCF101 video workload.
class LstmClassifier : public Network {
 public:
  LstmClassifier(std::size_t input_dim, std::size_t hidden_dim,
                 std::size_t classes, std::uint64_t seed,
                 double dropout_rate = 0.2);

  BatchResult ForwardBackward(const Batch& batch) override;
  BatchResult Evaluate(const Batch& batch) override;
  std::vector<tensor::Tensor*> Params() override;
  std::vector<tensor::Tensor*> Grads() override;
  std::string Name() const override { return "lstm"; }

 private:
  BatchResult Run(const Batch& batch, bool train);

  LstmLayer lstm_;
  Dropout dropout_;
  Dense head_;
};

/// Self-attention sequence classifier: attention → mean-pool → Dense head;
/// the stand-in for the paper's Transformer-on-WMT17 workload.
class AttentionClassifier : public Network {
 public:
  AttentionClassifier(std::size_t input_dim, std::size_t attn_dim,
                      std::size_t classes, std::uint64_t seed);

  BatchResult ForwardBackward(const Batch& batch) override;
  BatchResult Evaluate(const Batch& batch) override;
  std::vector<tensor::Tensor*> Params() override;
  std::vector<tensor::Tensor*> Grads() override;
  std::string Name() const override { return "attention"; }

 private:
  BatchResult Run(const Batch& batch, bool train);

  AttentionBlock attention_;
  Dense head_;
};

}  // namespace rna::nn
