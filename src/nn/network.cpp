#include "rna/nn/network.hpp"

#include <algorithm>

#include "rna/common/check.hpp"
#include "rna/tensor/ops.hpp"

namespace rna::nn {

namespace {

// Sizes `block` to the tensors' total and moves each into its slice, in
// order.
void MoveIntoBlock(const std::vector<tensor::Tensor*>& tensors,
                   std::vector<float>& block) {
  std::size_t size = 0;
  for (const tensor::Tensor* t : tensors) size += t->Size();
  block.resize(size);
  std::size_t offset = 0;
  for (tensor::Tensor* t : tensors) {
    t->MoveInto(std::span<float>(block).subspan(offset, t->Size()));
    offset += t->Size();
  }
}

}  // namespace

void Network::Flatten() {
  MoveIntoBlock(Params(), params_);
  MoveIntoBlock(Grads(), grads_);
  RNA_CHECK_MSG(params_.size() == grads_.size(),
                "every parameter needs a gradient of its size");
}

void Network::ZeroGrads() { std::fill(grads_.begin(), grads_.end(), 0.0f); }

// ---------------------------------------------------------------- MLP

MlpClassifier::MlpClassifier(std::vector<std::size_t> dims, std::uint64_t seed,
                             std::string name)
    : name_(std::move(name)) {
  RNA_CHECK_MSG(dims.size() >= 2, "MLP needs at least input and output dims");
  common::Rng rng(seed);
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    auto dense = std::make_unique<Dense>(dims[i], dims[i + 1], rng);
    dense_.push_back(dense.get());
    layers_.push_back(std::move(dense));
    if (i + 2 < dims.size()) layers_.push_back(std::make_unique<Relu>());
  }
  Flatten();
}

tensor::Tensor MlpClassifier::ForwardLogits(const Batch& batch) {
  RNA_CHECK_MSG(batch.sequences.empty(), "MLP takes dense inputs");
  tensor::Tensor x = batch.inputs;
  for (auto& layer : layers_) x = layer->Forward(x);
  return x;
}

BatchResult MlpClassifier::ForwardBackward(const Batch& batch) {
  ComputeScope scope(*this);
  ZeroGrads();
  tensor::Tensor logits = ForwardLogits(batch);
  const LossResult lr = SoftmaxCrossEntropy(logits, batch.labels);
  SoftmaxCrossEntropyGrad(logits, batch.labels);
  tensor::Tensor grad = std::move(logits);
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    grad = (*it)->Backward(grad);
  }
  return {lr.loss, lr.correct, batch.labels.size()};
}

// Evaluation keeps no layer caches: each hidden Dense writes into one of
// two buffers of rows × widest hidden layer, ReLU runs in place, and the
// last Dense writes the logits. Every operation and its order are the
// training forward's, so the loss and correct count match it bit for bit.
BatchResult MlpClassifier::Evaluate(const Batch& batch) {
  RNA_CHECK_MSG(batch.sequences.empty(), "MLP takes dense inputs");
  RNA_CHECK_MSG(batch.inputs.Cols() == dense_.front()->InDim(),
                "Dense input width mismatch");
  ComputeScope scope(*this);
  const std::size_t rows = batch.inputs.Rows();
  std::size_t widest = 0;
  for (std::size_t l = 0; l + 1 < dense_.size(); ++l) {
    widest = std::max(widest, dense_[l]->OutDim());
  }
  tensor::Tensor hidden[2] = {tensor::Tensor({rows, widest}),
                              tensor::Tensor({rows, widest})};
  tensor::Tensor logits({rows, dense_.back()->OutDim()});
  const float* x = batch.inputs.Data();
  for (std::size_t l = 0; l + 1 < dense_.size(); ++l) {
    float* y = hidden[l % 2].Data();
    dense_[l]->ForwardInto(x, rows, y);
    Relu::Apply({y, rows * dense_[l]->OutDim()});
    x = y;
  }
  dense_.back()->ForwardInto(x, rows, logits.Data());
  const LossResult lr = SoftmaxCrossEntropy(logits, batch.labels);
  return {lr.loss, lr.correct, batch.labels.size()};
}

std::vector<tensor::Tensor*> MlpClassifier::Params() {
  std::vector<tensor::Tensor*> out;
  for (auto& layer : layers_) {
    for (auto* p : layer->Params()) out.push_back(p);
  }
  return out;
}

std::vector<tensor::Tensor*> MlpClassifier::Grads() {
  std::vector<tensor::Tensor*> out;
  for (auto& layer : layers_) {
    for (auto* g : layer->Grads()) out.push_back(g);
  }
  return out;
}

// ---------------------------------------------------------------- LSTM

LstmClassifier::LstmClassifier(std::size_t input_dim, std::size_t hidden_dim,
                               std::size_t classes, std::uint64_t seed,
                               double dropout_rate)
    : lstm_([&] {
        common::Rng rng(seed);
        return LstmLayer(input_dim, hidden_dim, rng);
      }()),
      dropout_(dropout_rate, seed ^ 0x9e3779b97f4a7c15ULL),
      head_([&] {
        common::Rng rng(seed + 1);
        return Dense(hidden_dim, classes, rng);
      }()) {
  Flatten();
}

BatchResult LstmClassifier::Run(const Batch& batch, bool train) {
  RNA_CHECK_MSG(!batch.sequences.empty(), "LSTM takes sequence inputs");
  RNA_CHECK(batch.sequences.size() == batch.labels.size());
  ComputeScope scope(*this);
  if (train) ZeroGrads();
  dropout_.SetTraining(train);

  const SequencePack pack(batch.sequences);
  // Evaluation reads only the last states, so it skips the unrolled
  // caches that BPTT needs, and the head's input cache.
  const tensor::Tensor last = train ? pack.GatherLast(lstm_.Forward(pack))
                                    : lstm_.ForwardLast(pack);
  // Dropout draws its B×H mask in batch order, row by row. Inactive (rate
  // 0, or evaluation) it is the identity, and the states skip it uncopied.
  const bool drop = dropout_.Active();
  const tensor::Tensor dropped =
      drop ? dropout_.Forward(last) : tensor::Tensor();
  tensor::Tensor logits;
  if (train) {
    logits = head_.Forward(drop ? dropped : last);
  } else {
    logits = tensor::Tensor({last.Rows(), head_.OutDim()});
    head_.ForwardInto(last.Data(), last.Rows(), logits.Data());
  }
  const LossResult lr = SoftmaxCrossEntropy(logits, batch.labels);
  if (train) {
    SoftmaxCrossEntropyGrad(logits, batch.labels);
    tensor::Tensor dh = head_.Backward(logits);
    if (drop) dh = dropout_.Backward(dh);
    lstm_.Backward(pack, pack.ScatterLast(dh));
  }
  return {lr.loss, lr.correct, batch.labels.size()};
}

BatchResult LstmClassifier::ForwardBackward(const Batch& batch) {
  return Run(batch, /*train=*/true);
}

BatchResult LstmClassifier::Evaluate(const Batch& batch) {
  return Run(batch, /*train=*/false);
}

std::vector<tensor::Tensor*> LstmClassifier::Params() {
  std::vector<tensor::Tensor*> out = lstm_.Params();
  for (auto* p : head_.Params()) out.push_back(p);
  return out;
}

std::vector<tensor::Tensor*> LstmClassifier::Grads() {
  std::vector<tensor::Tensor*> out = lstm_.Grads();
  for (auto* g : head_.Grads()) out.push_back(g);
  return out;
}

// ---------------------------------------------------------------- Attention

AttentionClassifier::AttentionClassifier(std::size_t input_dim,
                                         std::size_t attn_dim,
                                         std::size_t classes,
                                         std::uint64_t seed)
    : attention_([&] {
        common::Rng rng(seed);
        return AttentionBlock(input_dim, attn_dim, rng);
      }()),
      head_([&] {
        common::Rng rng(seed + 1);
        return Dense(attn_dim, classes, rng);
      }()) {
  Flatten();
}

BatchResult AttentionClassifier::Run(const Batch& batch, bool train) {
  RNA_CHECK_MSG(!batch.sequences.empty(), "attention takes sequence inputs");
  RNA_CHECK(batch.sequences.size() == batch.labels.size());
  ComputeScope scope(*this);
  if (train) ZeroGrads();

  BatchResult result;
  result.total = batch.labels.size();
  const auto inv_batch =
      static_cast<float>(1.0 / static_cast<double>(batch.labels.size()));

  for (std::size_t s = 0; s < batch.sequences.size(); ++s) {
    const tensor::Tensor& x = batch.sequences[s];
    const std::size_t steps = x.Rows();
    tensor::Tensor y = attention_.Forward(x);  // T×A

    // Mean-pool over time.
    tensor::Tensor pooled({1, attention_.AttnDim()});
    tensor::SumRows(y, pooled.Flat());
    tensor::Scale(pooled.Flat(), 1.0f / static_cast<float>(steps));

    tensor::Tensor logits = head_.Forward(pooled);
    const std::span<const std::int32_t> label(&batch.labels[s], 1);
    const LossResult lr = SoftmaxCrossEntropy(logits, label);
    result.loss += lr.loss;
    result.correct += lr.correct;

    if (train) {
      SoftmaxCrossEntropyGrad(logits, label);
      tensor::Scale(logits.Flat(), inv_batch);
      tensor::Tensor dpooled = head_.Backward(logits);  // 1×A
      // Un-pool: every timestep row receives dpooled / T.
      tensor::Tensor dy({steps, attention_.AttnDim()});
      const float scale = 1.0f / static_cast<float>(steps);
      for (std::size_t t = 0; t < steps; ++t) {
        for (std::size_t a = 0; a < attention_.AttnDim(); ++a) {
          dy.At(t, a) = dpooled[a] * scale;
        }
      }
      attention_.Backward(dy);
    }
  }
  result.loss /= static_cast<double>(batch.labels.size());
  return result;
}

BatchResult AttentionClassifier::ForwardBackward(const Batch& batch) {
  return Run(batch, /*train=*/true);
}

BatchResult AttentionClassifier::Evaluate(const Batch& batch) {
  return Run(batch, /*train=*/false);
}

std::vector<tensor::Tensor*> AttentionClassifier::Params() {
  std::vector<tensor::Tensor*> out = attention_.Params();
  for (auto* p : head_.Params()) out.push_back(p);
  return out;
}

std::vector<tensor::Tensor*> AttentionClassifier::Grads() {
  std::vector<tensor::Tensor*> out = attention_.Grads();
  for (auto* g : head_.Grads()) out.push_back(g);
  return out;
}

}  // namespace rna::nn
