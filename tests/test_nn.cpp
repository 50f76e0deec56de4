// Unit and property tests for the from-scratch NN library. The core
// correctness instrument is the central-difference gradient check: for each
// model family, analytic backprop gradients must match numeric gradients of
// the loss at randomly sampled parameter coordinates.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "rna/common/rng.hpp"
#include "rna/common/simd.hpp"
#include "rna/data/generators.hpp"
#include "rna/nn/layer.hpp"
#include "rna/nn/loss.hpp"
#include "rna/nn/network.hpp"
#include "rna/nn/optimizer.hpp"

namespace rna::nn {
namespace {

using tensor::Tensor;

Batch DenseBatch(std::size_t n, std::size_t dim, std::size_t classes,
                 std::uint64_t seed) {
  common::Rng rng(seed);
  Batch b;
  b.inputs = Tensor({n, dim});
  for (auto& x : b.inputs.Flat()) x = static_cast<float>(rng.Normal(0, 1));
  for (std::size_t i = 0; i < n; ++i) {
    b.labels.push_back(static_cast<std::int32_t>(rng.UniformInt(classes)));
  }
  return b;
}

Batch SequenceBatch(std::size_t n, std::size_t dim, std::size_t classes,
                    std::uint64_t seed) {
  common::Rng rng(seed);
  Batch b;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t len = 3 + rng.UniformInt(5);
    Tensor seq({len, dim});
    for (auto& x : seq.Flat()) x = static_cast<float>(rng.Normal(0, 1));
    b.sequences.push_back(std::move(seq));
    b.labels.push_back(static_cast<std::int32_t>(rng.UniformInt(classes)));
  }
  return b;
}

/// Central-difference gradient check at `probes` random coordinates.
void CheckGradients(Network& net, const Batch& batch, std::size_t probes,
                    std::uint64_t seed) {
  const std::size_t dim = net.ParamCount();
  std::vector<float> params(dim), grad(dim);
  net.CopyParamsTo(params);
  net.SetParamsFrom(params);
  net.ForwardBackward(batch);
  net.CopyGradsTo(grad);

  common::Rng rng(seed);
  const float eps = 5e-3f;
  std::size_t outliers = 0;
  for (std::size_t probe = 0; probe < probes; ++probe) {
    const std::size_t i = rng.UniformInt(dim);
    const float saved = params[i];
    params[i] = saved + eps;
    net.SetParamsFrom(params);
    const double lp = net.Evaluate(batch).loss;
    params[i] = saved - eps;
    net.SetParamsFrom(params);
    const double lm = net.Evaluate(batch).loss;
    params[i] = saved;
    const double numeric = (lp - lm) / (2.0 * eps);
    const double analytic = grad[i];
    const double tol = 1e-2 + 5e-2 * std::max(std::abs(analytic),
                                              std::abs(numeric));
    // A perturbation can cross a ReLU kink, where the one-sided derivative
    // legitimately disagrees with backprop; tolerate a few such probes.
    if (std::abs(analytic - numeric) > tol) ++outliers;
  }
  EXPECT_LE(outliers, probes / 20 + 1)
      << "too many analytic/numeric gradient mismatches";
}

TEST(Dense, ForwardKnownValues) {
  common::Rng rng(1);
  Dense layer(2, 2, rng);
  // Overwrite weights with known values.
  auto params = layer.Params();
  (*params[0]).At(0, 0) = 1.0f;
  (*params[0]).At(0, 1) = 2.0f;
  (*params[0]).At(1, 0) = 3.0f;
  (*params[0]).At(1, 1) = 4.0f;
  (*params[1])[0] = 0.5f;
  (*params[1])[1] = -0.5f;
  Tensor x({1, 2}, {1.0f, 1.0f});
  Tensor y = layer.Forward(x);
  EXPECT_FLOAT_EQ(y[0], 4.5f);   // 1+3+0.5
  EXPECT_FLOAT_EQ(y[1], 5.5f);   // 2+4-0.5
}

TEST(Dense, BackwardShapes) {
  common::Rng rng(2);
  Dense layer(3, 5, rng);
  Tensor x({4, 3});
  layer.Forward(x);
  Tensor dy({4, 5});
  Tensor dx = layer.Backward(dy);
  EXPECT_EQ(dx.Rows(), 4u);
  EXPECT_EQ(dx.Cols(), 3u);
}

TEST(Activations, ReluMasksNegatives) {
  Relu relu;
  Tensor x({1, 4}, {-1.0f, 0.0f, 2.0f, -3.0f});
  Tensor y = relu.Forward(x);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
  Tensor dy({1, 4}, {1.0f, 1.0f, 1.0f, 1.0f});
  Tensor dx = relu.Backward(dy);
  EXPECT_EQ(dx[0], 0.0f);
  EXPECT_EQ(dx[2], 1.0f);
}

TEST(Activations, SigmoidRange) {
  Sigmoid sig;
  Tensor x({1, 3}, {-10.0f, 0.0f, 10.0f});
  Tensor y = sig.Forward(x);
  EXPECT_NEAR(y[0], 0.0f, 1e-4f);
  EXPECT_FLOAT_EQ(y[1], 0.5f);
  EXPECT_NEAR(y[2], 1.0f, 1e-4f);
}

TEST(Dropout, EvalModeIsIdentity) {
  Dropout drop(0.5, 1);
  drop.SetTraining(false);
  Tensor x({1, 8}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor y = drop.Forward(x);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(Dropout, TrainModePreservesExpectation) {
  Dropout drop(0.3, 2);
  Tensor x({1, 1}, {1.0f});
  double sum = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) sum += drop.Forward(x)[0];
  EXPECT_NEAR(sum / trials, 1.0, 0.03);  // inverted dropout keeps E[y]=x
}

TEST(Loss, SoftmaxCrossEntropyKnownValue) {
  // Uniform logits over 4 classes → loss = ln 4.
  Tensor logits({2, 4});
  LossResult r = SoftmaxCrossEntropy(logits, {0, 3});
  EXPECT_NEAR(r.loss, std::log(4.0), 1e-5);
  // Gradient rows sum to zero (softmax minus one-hot).
  for (std::size_t i = 0; i < 2; ++i) {
    double s = 0;
    for (std::size_t j = 0; j < 4; ++j) s += r.dlogits.At(i, j);
    EXPECT_NEAR(s, 0.0, 1e-6);
  }
}

TEST(Loss, PerfectPredictionNearZeroLoss) {
  Tensor logits({1, 3}, {100.0f, 0.0f, 0.0f});
  LossResult r = SoftmaxCrossEntropy(logits, {0});
  EXPECT_LT(r.loss, 1e-4);
  EXPECT_EQ(r.correct, 1u);
}

TEST(Loss, RejectsBadLabels) {
  Tensor logits({1, 3});
  EXPECT_THROW(SoftmaxCrossEntropy(logits, {5}), std::logic_error);
}

TEST(GradCheck, Mlp) {
  MlpClassifier net({6, 16, 8, 3}, 11);
  Batch batch = DenseBatch(5, 6, 3, 21);
  CheckGradients(net, batch, 60, 31);
}

TEST(GradCheck, Lstm) {
  LstmClassifier net(4, 8, 3, 12, /*dropout_rate=*/0.0);
  Batch batch = SequenceBatch(3, 4, 3, 22);
  CheckGradients(net, batch, 60, 32);
}

TEST(GradCheck, Attention) {
  AttentionClassifier net(4, 6, 3, 13);
  Batch batch = SequenceBatch(3, 4, 3, 23);
  CheckGradients(net, batch, 60, 33);
}

TEST(GradCheck, DeepLstm) {
  DeepLstmClassifier net(4, 6, 2, 3, 14);
  Batch batch = SequenceBatch(3, 4, 3, 24);
  CheckGradients(net, batch, 60, 34);
}

TEST(GradCheck, Transformer) {
  TransformerClassifier net(4, 8, 2, 3, 15);
  Batch batch = SequenceBatch(3, 4, 3, 25);
  CheckGradients(net, batch, 80, 35);
}

TEST(LayerNormUnit, NormalizesRows) {
  LayerNorm norm(4);
  Tensor x({2, 4}, {1.0f, 2.0f, 3.0f, 4.0f, 10.0f, 10.0f, 10.0f, 10.0f});
  Tensor y = norm.Forward(x);
  // Row 0: zero mean, unit variance under the default γ=1, β=0.
  double mean = 0, var = 0;
  for (std::size_t i = 0; i < 4; ++i) mean += y.At(0, i);
  mean /= 4;
  for (std::size_t i = 0; i < 4; ++i) {
    var += (y.At(0, i) - mean) * (y.At(0, i) - mean);
  }
  EXPECT_NEAR(mean, 0.0, 1e-5);
  EXPECT_NEAR(var / 4, 1.0, 1e-3);
  // Row 1 is constant → normalized to ~0 (epsilon guards the division).
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(y.At(1, i), 0.0, 1e-3);
}

TEST(LayerNormUnit, GainBiasApplied) {
  LayerNorm norm(2);
  (*norm.Params()[0])[0] = 2.0f;  // γ₀
  (*norm.Params()[1])[1] = 5.0f;  // β₁
  Tensor x({1, 2}, {-1.0f, 1.0f});
  Tensor y = norm.Forward(x);
  EXPECT_NEAR(y[0], -2.0f, 1e-3);  // normalized −1 scaled by γ=2
  EXPECT_NEAR(y[1], 6.0f, 1e-3);   // normalized +1 plus β=5
}

TEST(MultiHead, OutputConcatenatesHeads) {
  common::Rng rng(3);
  MultiHeadAttention mha(4, 3, 2, rng);
  EXPECT_EQ(mha.OutDim(), 6u);
  Tensor x({5, 4});
  for (auto& v : x.Flat()) v = static_cast<float>(rng.Normal(0, 1));
  Tensor y = mha.Forward(x);
  EXPECT_EQ(y.Rows(), 5u);
  EXPECT_EQ(y.Cols(), 6u);
  EXPECT_EQ(mha.Params().size(), 6u);  // Wq/Wk/Wv per head
}

// Packing keeps every sequence to itself: in a batch of unsorted lengths,
// GatherLast returns bitwise the final state each sequence reaches alone.
TEST(StackedLstm, SequenceApiMatchesFinalState) {
  common::Rng rng(4);
  LstmLayer lstm(3, 5, rng);
  const std::size_t lengths[] = {7, 2, 7, 4};
  std::vector<Tensor> seqs;
  for (const std::size_t len : lengths) {
    Tensor x({len, 3});
    for (auto& v : x.Flat()) v = static_cast<float>(rng.Normal(0, 1));
    seqs.push_back(std::move(x));
  }
  const SequencePack pack(seqs);
  ASSERT_EQ(pack.Rows(), 20u);
  ASSERT_EQ(pack.Steps(), 7u);
  EXPECT_EQ(pack.Active(0), 4u);
  EXPECT_EQ(pack.Active(2), 3u);
  EXPECT_EQ(pack.Active(4), 2u);
  EXPECT_EQ(pack.Active(6), 2u);
  const Tensor h_all = lstm.Forward(pack, pack.Inputs());
  ASSERT_EQ(h_all.Rows(), 20u);
  const Tensor h_last = pack.GatherLast(h_all);
  ASSERT_EQ(h_last.Rows(), 4u);

  for (std::size_t s = 0; s < seqs.size(); ++s) {
    const SequencePack alone(std::span<const Tensor>(&seqs[s], 1));
    const Tensor h_alone = lstm.Forward(alone, alone.Inputs());
    ASSERT_EQ(h_alone.Rows(), lengths[s]);
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(h_last.At(s, i), h_alone.At(lengths[s] - 1, i))
          << "sequence " << s << " unit " << i;
    }
  }
}

// A batch of unsorted lengths trains like its sequences one at a time: the
// same loss, hits and gradients as accumulating the one-sequence batches,
// each scaled by 1/B. Pins the active-prefix masking, each sequence's own
// final state and the dropout mask draw order (batch order, row by row).
class LstmBatchEquivalence : public ::testing::TestWithParam<const char*> {};

std::unique_ptr<Network> BatchEquivModel(const std::string& kind) {
  if (kind == "lstm") return std::make_unique<LstmClassifier>(4, 6, 3, 17, 0.0);
  if (kind == "lstm_dropout") {
    return std::make_unique<LstmClassifier>(4, 6, 3, 17, 0.2);
  }
  return std::make_unique<DeepLstmClassifier>(4, 6, 2, 3, 17);
}

TEST_P(LstmBatchEquivalence, MatchesOneSequenceBatches) {
  const std::size_t lengths[] = {1, 5, 2, 5, 9, 3};
  const std::size_t batch_size = std::size(lengths);
  common::Rng rng(51);
  Batch batch;
  for (const std::size_t len : lengths) {
    Tensor seq({len, 4});
    for (auto& x : seq.Flat()) x = static_cast<float>(rng.Normal(0, 1));
    batch.sequences.push_back(std::move(seq));
    batch.labels.push_back(static_cast<std::int32_t>(rng.UniformInt(3)));
  }

  auto whole = BatchEquivModel(GetParam());
  const BatchResult result = whole->ForwardBackward(batch);
  const std::size_t dim = whole->ParamCount();
  std::vector<float> grad(dim);
  whole->CopyGradsTo(grad);

  auto single = BatchEquivModel(GetParam());
  std::vector<double> expected(dim, 0.0);
  std::vector<float> one_grad(dim);
  double loss = 0.0;
  std::size_t correct = 0;
  for (std::size_t s = 0; s < batch_size; ++s) {
    Batch one;
    one.sequences.push_back(batch.sequences[s]);
    one.labels.push_back(batch.labels[s]);
    const BatchResult r = single->ForwardBackward(one);
    loss += r.loss;
    correct += r.correct;
    single->CopyGradsTo(one_grad);
    for (std::size_t i = 0; i < dim; ++i) {
      expected[i] += static_cast<double>(one_grad[i]) / batch_size;
    }
  }
  loss /= batch_size;

  EXPECT_NEAR(result.loss, loss, 1e-6 * loss);
  EXPECT_EQ(result.correct, correct);
  EXPECT_EQ(result.total, batch_size);
  // Relative to the largest gradient: the two paths sum the same terms in
  // different float orders, so a coordinate whose terms cancel keeps only
  // rounding noise of the scale of its terms (~1e-8 of max|grad| here).
  double scale = 0.0;
  for (const double g : expected) scale = std::max(scale, std::abs(g));
  ASSERT_GT(scale, 0.0);
  std::size_t off = 0;
  for (std::size_t i = 0; i < dim; ++i) {
    if (std::abs(grad[i] - expected[i]) > 1e-6 * scale) ++off;
  }
  EXPECT_EQ(off, 0u) << off << "/" << dim
                     << " gradients differ by > 1e-6 of max|grad|";
}

INSTANTIATE_TEST_SUITE_P(Models, LstmBatchEquivalence,
                         ::testing::Values("lstm", "lstm_dropout",
                                           "deep_lstm"));

TEST(Adam, StepsTowardMinimum) {
  // Minimize f(x) = (x − 3)², gradient 2(x − 3).
  Adam opt(1, {.learning_rate = 0.1});
  std::vector<float> x = {0.0f};
  for (int i = 0; i < 400; ++i) {
    const std::vector<float> grad = {2.0f * (x[0] - 3.0f)};
    opt.Step(x, grad);
  }
  EXPECT_NEAR(x[0], 3.0f, 0.05f);
  EXPECT_EQ(opt.StepsTaken(), 400u);
}

TEST(Adam, FirstStepIsLearningRateSized) {
  // With bias correction the very first Adam step ≈ lr·sign(g).
  Adam opt(1, {.learning_rate = 0.01});
  std::vector<float> x = {0.0f};
  opt.Step(x, std::vector<float>{5.0f});
  EXPECT_NEAR(x[0], -0.01f, 1e-4f);
}

TEST(Adam, LrScaleApplies) {
  Adam opt(1, {.learning_rate = 0.01});
  std::vector<float> x = {0.0f};
  opt.Step(x, std::vector<float>{5.0f}, 0.5);
  EXPECT_NEAR(x[0], -0.005f, 1e-4f);
}

TEST(Network, ParamRoundTrip) {
  MlpClassifier net({4, 8, 2}, 5);
  const std::size_t dim = net.ParamCount();
  EXPECT_EQ(dim, 4u * 8 + 8 + 8 * 2 + 2);
  std::vector<float> params(dim);
  net.CopyParamsTo(params);
  std::vector<float> modified = params;
  for (auto& p : modified) p += 1.0f;
  net.SetParamsFrom(modified);
  std::vector<float> readback(dim);
  net.CopyParamsTo(readback);
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_FLOAT_EQ(readback[i], params[i] + 1.0f);
  }
}

TEST(Network, SameSeedSameParams) {
  MlpClassifier a({5, 7, 2}, 99), b({5, 7, 2}, 99);
  std::vector<float> pa(a.ParamCount()), pb(b.ParamCount());
  a.CopyParamsTo(pa);
  b.CopyParamsTo(pb);
  EXPECT_EQ(pa, pb);
}

TEST(Network, LstmParamCount) {
  LstmClassifier net(8, 16, 4, 1);
  // Wx: 8×64, Wh: 16×64, b: 64, head W: 16×4, head b: 4.
  EXPECT_EQ(net.ParamCount(), 8u * 64 + 16 * 64 + 64 + 16 * 4 + 4);
}

TEST(Network, TrainingReducesLoss) {
  // A few plain-SGD steps on a separable problem must reduce the loss.
  data::Dataset ds = data::MakeGaussianClusters(256, 8, 3, 0.3, 77);
  MlpClassifier net({8, 32, 3}, 7);
  const std::size_t dim = net.ParamCount();
  std::vector<float> params(dim), grad(dim);
  net.CopyParamsTo(params);
  SgdMomentum opt(dim, {.learning_rate = 0.2, .momentum = 0.9});

  std::vector<std::size_t> all(ds.Size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  Batch batch = ds.MakeBatch(all);

  net.SetParamsFrom(params);
  const double initial = net.Evaluate(batch).loss;
  for (int step = 0; step < 60; ++step) {
    net.SetParamsFrom(params);
    net.ForwardBackward(batch);
    net.CopyGradsTo(grad);
    opt.Step(params, grad);
  }
  net.SetParamsFrom(params);
  const auto after = net.Evaluate(batch);
  EXPECT_LT(after.loss, initial * 0.5);
  EXPECT_GT(after.Accuracy(), 0.8);
}

TEST(Optimizer, PlainSgdStep) {
  SgdMomentum opt(2, {.learning_rate = 0.1, .momentum = 0.0});
  std::vector<float> params = {1.0f, 2.0f};
  const std::vector<float> grad = {1.0f, -1.0f};
  opt.Step(params, grad);
  EXPECT_FLOAT_EQ(params[0], 0.9f);
  EXPECT_FLOAT_EQ(params[1], 2.1f);
}

TEST(Optimizer, MomentumAccumulates) {
  SgdMomentum opt(1, {.learning_rate = 1.0, .momentum = 0.5});
  std::vector<float> params = {0.0f};
  const std::vector<float> grad = {1.0f};
  opt.Step(params, grad);  // v=1, p=-1
  EXPECT_FLOAT_EQ(params[0], -1.0f);
  opt.Step(params, grad);  // v=1.5, p=-2.5
  EXPECT_FLOAT_EQ(params[0], -2.5f);
}

TEST(Optimizer, LrScaleShrinksStep) {
  SgdMomentum opt(1, {.learning_rate = 1.0, .momentum = 0.0});
  std::vector<float> params = {0.0f};
  const std::vector<float> grad = {1.0f};
  opt.Step(params, grad, 0.25);
  EXPECT_FLOAT_EQ(params[0], -0.25f);
}

TEST(Optimizer, WeightDecayPullsTowardZero) {
  SgdMomentum opt(1, {.learning_rate = 0.1, .momentum = 0.0,
                      .weight_decay = 1.0});
  std::vector<float> params = {10.0f};
  const std::vector<float> grad = {0.0f};
  opt.Step(params, grad);
  EXPECT_FLOAT_EQ(params[0], 9.0f);
}

// Gradient-check sweep over MLP architectures.
class MlpGradSweep : public ::testing::TestWithParam<int> {};

TEST_P(MlpGradSweep, GradientsMatch) {
  const int hidden = GetParam();
  MlpClassifier net({4, static_cast<std::size_t>(hidden), 2},
                    1000 + hidden);
  Batch batch = DenseBatch(4, 4, 2, 2000 + hidden);
  CheckGradients(net, batch, 30, 3000 + hidden);
}

INSTANTIATE_TEST_SUITE_P(Hidden, MlpGradSweep, ::testing::Values(1, 4, 16, 33));

// ---------------------------------------------------------------------------
// Arena/SIMD equivalence: the arena-allocated compute plane with the blocked
// vectorized kernels must produce BITWISE-identical training trajectories to
// the naive pre-arena path (heap temporaries + scalar kernels). This is the
// contract that makes the arena a pure memory optimization and the matmul
// blocking a pure speed optimization — neither may perturb training.

class ScopedDispatch {
 public:
  explicit ScopedDispatch(common::simd::Dispatch d)
      : saved_(common::simd::ActiveDispatch()) {
    common::simd::SetDispatch(d);
  }
  ~ScopedDispatch() { common::simd::SetDispatch(saved_); }

 private:
  common::simd::Dispatch saved_;
};

std::unique_ptr<Network> EquivModel(const std::string& kind) {
  if (kind == "mlp") {
    return std::make_unique<MlpClassifier>(std::vector<std::size_t>{9, 17, 4},
                                           7);
  }
  // Dropout stays ON for the LSTM: both paths must consume identical Rng
  // streams, so mask draws are part of the equivalence contract.
  if (kind == "lstm") return std::make_unique<LstmClassifier>(5, 13, 4, 7);
  if (kind == "deep-lstm") {
    return std::make_unique<DeepLstmClassifier>(5, 11, 2, 4, 7);
  }
  if (kind == "transformer") {
    return std::make_unique<TransformerClassifier>(5, 16, 2, 4, 7);
  }
  return std::make_unique<AttentionClassifier>(5, 11, 4, 7);
}

Batch EquivBatch(const std::string& kind) {
  return kind == "mlp" ? DenseBatch(7, 9, 4, 41) : SequenceBatch(5, 5, 4, 41);
}

struct TrainTrace {
  std::vector<double> losses;
  std::vector<float> grads;
  std::vector<float> params;
};

TrainTrace RunTrainTrace(const std::string& kind, bool arena,
                         common::simd::Dispatch dispatch, int iters) {
  ScopedDispatch guard(dispatch);
  auto net = EquivModel(kind);
  net->EnableArena(arena);
  const Batch batch = EquivBatch(kind);

  const std::size_t dim = net->ParamCount();
  TrainTrace trace;
  trace.params.resize(dim);
  trace.grads.resize(dim);
  net->CopyParamsTo(trace.params);
  SgdMomentum opt(dim, {.learning_rate = 0.05, .momentum = 0.9});
  for (int i = 0; i < iters; ++i) {
    net->SetParamsFrom(trace.params);
    trace.losses.push_back(net->ForwardBackward(batch).loss);
    net->CopyGradsTo(trace.grads);
    opt.Step(trace.params, trace.grads);
  }
  return trace;
}

void ExpectBitwiseEqual(std::span<const float> a, std::span<const float> b,
                        const char* what) {
  ASSERT_EQ(a.size(), b.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint32_t ba, bb;
    std::memcpy(&ba, &a[i], sizeof(ba));
    std::memcpy(&bb, &b[i], sizeof(bb));
    if (ba != bb) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u) << what << ": " << mismatches << "/" << a.size()
                            << " floats differ bitwise";
}

class ArenaEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(ArenaEquivalence, BitwiseIdenticalToNaivePath) {
  const int kIters = 4;
  const TrainTrace fast =
      RunTrainTrace(GetParam(), /*arena=*/true, common::simd::Dispatch::kAuto,
                    kIters);
  const TrainTrace naive =
      RunTrainTrace(GetParam(), /*arena=*/false,
                    common::simd::Dispatch::kScalar, kIters);
  ASSERT_EQ(fast.losses.size(), naive.losses.size());
  for (int i = 0; i < kIters; ++i) {
    EXPECT_EQ(fast.losses[i], naive.losses[i])
        << "loss diverged at iteration " << i;
  }
  ExpectBitwiseEqual(fast.grads, naive.grads, "final gradients");
  ExpectBitwiseEqual(fast.params, naive.params, "final parameters");
}

// The two switches are independent; flipping only one must also be exact.
TEST_P(ArenaEquivalence, ArenaAloneIsExact) {
  const TrainTrace on = RunTrainTrace(GetParam(), /*arena=*/true,
                                      common::simd::Dispatch::kScalar, 3);
  const TrainTrace off = RunTrainTrace(GetParam(), /*arena=*/false,
                                       common::simd::Dispatch::kScalar, 3);
  EXPECT_EQ(on.losses, off.losses);
  ExpectBitwiseEqual(on.params, off.params, "final parameters");
}

TEST_P(ArenaEquivalence, VectorizedKernelsAloneAreExact) {
  const TrainTrace vec = RunTrainTrace(GetParam(), /*arena=*/true,
                                       common::simd::Dispatch::kAuto, 3);
  const TrainTrace sca = RunTrainTrace(GetParam(), /*arena=*/true,
                                       common::simd::Dispatch::kScalar, 3);
  EXPECT_EQ(vec.losses, sca.losses);
  ExpectBitwiseEqual(vec.params, sca.params, "final parameters");
}

INSTANTIATE_TEST_SUITE_P(Models, ArenaEquivalence,
                         ::testing::Values("mlp", "lstm", "deep-lstm",
                                           "transformer", "attention"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Forward-only evaluation: LstmLayer::ForwardLast keeps one step of state
// and must return bit for bit the last states of the training forward,
// under both dispatches.

std::vector<Tensor> RandomSequences(std::span<const std::size_t> lengths,
                                    std::size_t dim, common::Rng& rng) {
  std::vector<Tensor> seqs;
  for (const std::size_t len : lengths) {
    Tensor x({len, dim});
    for (auto& v : x.Flat()) v = static_cast<float>(rng.Normal(0, 1));
    seqs.push_back(std::move(x));
  }
  return seqs;
}

/// 96 validation sequences of the lstm-imbalance task (6-dim Figure 2(a)
/// lengths, VideoLengths(16)): one end-of-run evaluation slice.
Batch LstmImbalanceSlice() {
  const auto [train, val] =
      data::MakeSequenceDataset(960, 6, 6, data::VideoLengths(16.0), 1.2, 5)
          .SplitHoldout(0.2);
  std::vector<std::size_t> indices(96);
  std::iota(indices.begin(), indices.end(), 0);
  return val.MakeBatch(indices);
}

void ExpectForwardLastMatches(std::span<const Tensor> seqs,
                              std::size_t hidden) {
  common::Rng rng(8);
  LstmLayer lstm(seqs.front().Cols(), hidden, rng);
  for (const auto dispatch :
       {common::simd::Dispatch::kAuto, common::simd::Dispatch::kScalar}) {
    SCOPED_TRACE(dispatch == common::simd::Dispatch::kAuto ? "auto"
                                                            : "scalar");
    ScopedDispatch guard(dispatch);
    const SequencePack pack(seqs);
    const Tensor expected = pack.GatherLast(lstm.Forward(pack, pack.Inputs()));
    const Tensor last = lstm.ForwardLast(pack, pack.Inputs());
    ASSERT_TRUE(last.SameShape(expected)) << last.ShapeString();
    ExpectBitwiseEqual(last.Flat(), expected.Flat(), "last hidden states");
  }
}

struct LengthMix {
  const char* name;
  std::vector<std::size_t> lengths;
};

class LstmForwardLast : public ::testing::TestWithParam<LengthMix> {};

TEST_P(LstmForwardLast, EqualsGatherLastOfForward) {
  common::Rng rng(31);
  ExpectForwardLastMatches(RandomSequences(GetParam().lengths, 5, rng), 7);
}

INSTANTIATE_TEST_SUITE_P(
    Lengths, LstmForwardLast,
    ::testing::Values(LengthMix{"all_length_one", {1, 1, 1, 1}},
                      LengthMix{"one_sequence", {6}},
                      LengthMix{"equal_lengths", {4, 4, 4}},
                      LengthMix{"mixed", {1, 5, 2, 5, 9, 3}}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(LstmForwardLastSlice, EqualsGatherLastOfForward) {
  const Batch batch = LstmImbalanceSlice();
  ASSERT_EQ(batch.sequences.size(), 96u);
  ExpectForwardLastMatches(batch.sequences, 16);
}

// With dropout 0 the training pass and evaluation see the same logits.
TEST(LstmForwardLastSlice, EvaluateMatchesForwardBackward) {
  const Batch batch = LstmImbalanceSlice();
  LstmClassifier net(6, 16, 6, 7, 0.0);
  const BatchResult eval = net.Evaluate(batch);
  const BatchResult train = net.ForwardBackward(batch);
  EXPECT_EQ(eval.loss, train.loss);
  EXPECT_EQ(eval.correct, train.correct);
  EXPECT_EQ(eval.total, train.total);
  EXPECT_GT(eval.correct, 0u);
}

// Evaluation no longer holds the unrolled gate, cell and hidden caches: a
// whole 96-sequence Evaluate (pack, head and loss included) takes under a
// quarter of the arena that the training forward of its LSTM layer alone
// takes.
TEST(LstmForwardLastSlice, EvaluateScratchIsUnderAQuarterOfTheForward) {
  const Batch batch = LstmImbalanceSlice();
  LstmClassifier net(6, 16, 6, 7, 0.0);
  net.Evaluate(batch);
  const std::size_t eval_bytes =
      net.ComputeArena().Stats().short_high_water;

  common::Rng rng(7);
  LstmLayer lstm(6, 16, rng);
  tensor::Arena arena;
  {
    tensor::Arena::StepScope scope(arena);
    const SequencePack pack(batch.sequences);
    lstm.Forward(pack, pack.Inputs());
  }
  const std::size_t forward_bytes = arena.Stats().short_high_water;
  EXPECT_GT(eval_bytes, 0u);
  EXPECT_LT(4 * eval_bytes, forward_bytes)
      << "Evaluate " << eval_bytes << " B, training forward "
      << forward_bytes << " B";
}

// ---------------------------------------------------------------------------
// Forward-only MLP evaluation: Evaluate runs the Dense/ReLU stack through two
// buffers without layer caches and must give ForwardBackward's loss and
// correct count bit for bit.

/// perfbench's mixed-hetero model.
std::unique_ptr<MlpClassifier> PerfbenchMlp() {
  return std::make_unique<MlpClassifier>(
      std::vector<std::size_t>{16, 48, 48, 32, 8}, 7);
}

/// Gaussian inputs with exact zeros, negative zeros and large magnitudes
/// mixed in: zeros take the matmuls' skip branch, −0.0 must stay on the
/// ReLU's zero side, and large values saturate the softmax.
Batch MixedMlpBatch(std::size_t rows, std::uint64_t seed) {
  Batch b = DenseBatch(rows, 16, 8, seed);
  auto x = b.inputs.Flat();
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (i % 7 == 1) x[i] = 0.0f;
    if (i % 7 == 3) x[i] = -0.0f;
    if (i % 7 == 5) x[i] *= 1e4f;
  }
  return b;
}

class MlpEvaluate : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MlpEvaluate, MatchesForwardBackwardBitwise) {
  const Batch batch = MixedMlpBatch(GetParam(), 40 + GetParam());
  for (const auto dispatch :
       {common::simd::Dispatch::kAuto, common::simd::Dispatch::kScalar}) {
    SCOPED_TRACE(dispatch == common::simd::Dispatch::kAuto ? "auto"
                                                            : "scalar");
    ScopedDispatch guard(dispatch);
    auto net = PerfbenchMlp();
    const BatchResult eval = net->Evaluate(batch);
    const BatchResult train = net->ForwardBackward(batch);
    EXPECT_EQ(std::memcmp(&eval.loss, &train.loss, sizeof(double)), 0)
        << eval.loss << " vs " << train.loss;
    EXPECT_EQ(eval.correct, train.correct);
    EXPECT_EQ(eval.total, train.total);
  }
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, MlpEvaluate,
                         ::testing::Values(1, 16, 96, 333));

// A training replica pins its arena at a batch-16 step's high water, as
// WorkerContext::PinArenaCapacity does. The end-of-run evaluation relaxes
// the pin and runs 96-sample slices: forward-only, a slice fits the pinned
// chunk, where the training forward's caches would grow a 1 MiB one.
TEST(MlpEvaluateArena, SliceFitsTheBatch16PinnedChunk) {
  auto net = PerfbenchMlp();
  Batch warmup;
  warmup.inputs = Tensor({16, 16});
  warmup.labels.assign(16, 0);
  net->ForwardBackward(warmup);
  net->ComputeArena().ReserveExact();
  const tensor::ArenaStats pinned = net->ComputeArena().Stats();

  net->ComputeArena().Relax();
  EXPECT_EQ(net->Evaluate(MixedMlpBatch(96, 5)).total, 96u);
  const tensor::ArenaStats& after = net->ComputeArena().Stats();
  EXPECT_EQ(after.chunk_allocs, pinned.chunk_allocs);
  EXPECT_EQ(after.reserved_bytes, pinned.reserved_bytes)
      << "slice high water " << after.short_high_water << " B";
}

}  // namespace
}  // namespace rna::nn
