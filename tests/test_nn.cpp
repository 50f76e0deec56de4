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
#include "rna/data/shard_view.hpp"
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
  net.ForwardBackward(batch);
  const std::vector<float> grad(net.GradsFlat().begin(),
                                net.GradsFlat().end());
  const std::span<float> params = net.ParamsFlat();

  common::Rng rng(seed);
  const float eps = 5e-3f;
  std::size_t outliers = 0;
  for (std::size_t probe = 0; probe < probes; ++probe) {
    const std::size_t i = rng.UniformInt(dim);
    const float saved = params[i];
    params[i] = saved + eps;
    const double lp = net.Evaluate(batch).loss;
    params[i] = saved - eps;
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
  const std::int32_t labels[] = {0, 3};
  LossResult r = SoftmaxCrossEntropy(logits, labels);
  EXPECT_NEAR(r.loss, std::log(4.0), 1e-5);
  // Gradient rows sum to zero (softmax minus one-hot).
  SoftmaxCrossEntropyGrad(logits, labels);
  for (std::size_t i = 0; i < 2; ++i) {
    double s = 0;
    for (std::size_t j = 0; j < 4; ++j) s += logits.At(i, j);
    EXPECT_NEAR(s, 0.0, 1e-6);
  }
}

TEST(Loss, PerfectPredictionNearZeroLoss) {
  Tensor logits({1, 3}, {100.0f, 0.0f, 0.0f});
  const std::int32_t label[] = {0};
  LossResult r = SoftmaxCrossEntropy(logits, label);
  EXPECT_LT(r.loss, 1e-4);
  EXPECT_EQ(r.correct, 1u);
}

TEST(Loss, RejectsBadLabels) {
  Tensor logits({1, 3});
  const std::int32_t label[] = {5};
  EXPECT_THROW(SoftmaxCrossEntropy(logits, label), std::logic_error);
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

// Packing keeps every sequence to itself: in a batch of unsorted lengths,
// GatherLast returns bitwise the final state each sequence reaches alone.
TEST(SequencePack, GatherLastMatchesEachSequenceAlone) {
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
  const Tensor h_all = lstm.Forward(pack);
  ASSERT_EQ(h_all.Rows(), 20u);
  const Tensor h_last = pack.GatherLast(h_all);
  ASSERT_EQ(h_last.Rows(), 4u);

  for (std::size_t s = 0; s < seqs.size(); ++s) {
    const SequencePack alone(std::span<const Tensor>(&seqs[s], 1));
    const Tensor h_alone = lstm.Forward(alone);
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
  return std::make_unique<LstmClassifier>(4, 6, 3, 17, 0.2);
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
  const std::span<const float> grad = whole->GradsFlat();

  auto single = BatchEquivModel(GetParam());
  std::vector<double> expected(dim, 0.0);
  double loss = 0.0;
  std::size_t correct = 0;
  for (std::size_t s = 0; s < batch_size; ++s) {
    Batch one;
    one.sequences.push_back(batch.sequences[s]);
    one.labels.push_back(batch.labels[s]);
    const BatchResult r = single->ForwardBackward(one);
    loss += r.loss;
    correct += r.correct;
    const std::span<const float> one_grad = single->GradsFlat();
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
                         ::testing::Values("lstm", "lstm_dropout"));

std::vector<float> ToVector(std::span<const float> values) {
  return {values.begin(), values.end()};
}

TEST(Network, ParamRoundTrip) {
  MlpClassifier net({4, 8, 2}, 5);
  const std::size_t dim = net.ParamCount();
  EXPECT_EQ(dim, 4u * 8 + 8 + 8 * 2 + 2);
  ASSERT_EQ(net.ParamsFlat().size(), dim);
  const std::vector<float> params = ToVector(net.ParamsFlat());
  for (auto& p : net.ParamsFlat()) p += 1.0f;
  const std::span<const float> readback = net.ParamsFlat();
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_FLOAT_EQ(readback[i], params[i] + 1.0f);
  }
}

TEST(Network, SameSeedSameParams) {
  MlpClassifier a({5, 7, 2}, 99), b({5, 7, 2}, 99);
  EXPECT_EQ(ToVector(a.ParamsFlat()), ToVector(b.ParamsFlat()));
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
  SgdMomentum opt(net.ParamCount(), {.learning_rate = 0.2, .momentum = 0.9});

  std::vector<std::size_t> all(ds.Size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  Batch batch = data::ShardView::All(ds).MakeBatch(all);

  const double initial = net.Evaluate(batch).loss;
  for (int step = 0; step < 60; ++step) {
    net.ForwardBackward(batch);
    opt.Step(net.ParamsFlat(), net.GradsFlat());
  }
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

  TrainTrace trace;
  SgdMomentum opt(net->ParamCount(), {.learning_rate = 0.05, .momentum = 0.9});
  for (int i = 0; i < iters; ++i) {
    trace.losses.push_back(net->ForwardBackward(batch).loss);
    opt.Step(net->ParamsFlat(), net->GradsFlat());
  }
  trace.grads = ToVector(net->GradsFlat());
  trace.params = ToVector(net->ParamsFlat());
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
                         ::testing::Values("mlp", "lstm", "attention"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// ---------------------------------------------------------------------------
// One parameter layout: ParamsFlat() and GradsFlat() are the layers' own
// storage. Every Params()/Grads() tensor is a view of its slice, in Params()
// order, and stays one through training and evaluation steps.

class NetworkBlocks : public ::testing::TestWithParam<const char*> {};

void ExpectSlicesOf(const std::vector<Tensor*>& tensors,
                    std::span<const float> block, const char* what) {
  std::size_t offset = 0;
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    EXPECT_EQ(tensors[i]->Data(), block.data() + offset)
        << what << " tensor " << i << " is not at offset " << offset;
    offset += tensors[i]->Size();
  }
  EXPECT_EQ(offset, block.size()) << what;
}

TEST_P(NetworkBlocks, TensorsViewTheirSlicesAfterEveryStep) {
  auto net = EquivModel(GetParam());
  const Batch batch = EquivBatch(GetParam());
  net->ForwardBackward(batch);
  ExpectSlicesOf(net->Params(), net->ParamsFlat(), "param");
  ExpectSlicesOf(net->Grads(), net->GradsFlat(), "grad");
  net->Evaluate(batch);
  ExpectSlicesOf(net->Params(), net->ParamsFlat(), "param");
  ExpectSlicesOf(net->Grads(), net->GradsFlat(), "grad");
}

TEST_P(NetworkBlocks, WriteThroughParamsFlatChangesTheLoss) {
  auto net = EquivModel(GetParam());
  const Batch batch = EquivBatch(GetParam());
  const double before = net->Evaluate(batch).loss;
  for (float& p : net->ParamsFlat()) p += 0.25f;
  EXPECT_NE(net->Evaluate(batch).loss, before);
}

TEST_P(NetworkBlocks, GradsFlatIsThePerTensorConcatenation) {
  auto net = EquivModel(GetParam());
  net->ForwardBackward(EquivBatch(GetParam()));
  std::vector<float> concatenated;
  for (const Tensor* g : net->Grads()) {
    concatenated.insert(concatenated.end(), g->Flat().begin(),
                        g->Flat().end());
  }
  ExpectBitwiseEqual(net->GradsFlat(), concatenated, "gradients");
  EXPECT_TRUE(std::any_of(concatenated.begin(), concatenated.end(),
                          [](float g) { return g != 0.0f; }));
}

INSTANTIATE_TEST_SUITE_P(Models, NetworkBlocks,
                         ::testing::Values("mlp", "lstm", "attention"),
                         [](const auto& info) {
                           return std::string(info.param);
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
  return data::ShardView::All(val).MakeBatch(indices);
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
    const Tensor expected = pack.GatherLast(lstm.Forward(pack));
    const Tensor last = lstm.ForwardLast(pack);
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
    lstm.Forward(pack);
  }
  const std::size_t forward_bytes = arena.Stats().short_high_water;
  EXPECT_GT(eval_bytes, 0u);
  EXPECT_LT(4 * eval_bytes, forward_bytes)
      << "Evaluate " << eval_bytes << " B, training forward "
      << forward_bytes << " B";
}

// Inactive dropout (evaluation, or rate 0) is skipped rather than copied
// through: Evaluate takes exactly the arena of its other stages (pack,
// forward-only LSTM, the head's logits without an input cache, loss), and a
// training step at rate 0 takes three B×H buffers (mask, output, input
// gradient) less than one at rate 0.2.
TEST(LstmForwardLastSlice, InactiveDropoutTakesNoArena) {
  const Batch batch = LstmImbalanceSlice();
  LstmClassifier net(6, 16, 6, 7, 0.0);
  net.Evaluate(batch);
  const std::size_t eval_bytes = net.ComputeArena().Stats().short_high_water;

  common::Rng rng(7);
  LstmLayer lstm(6, 16, rng);
  Dense head(16, 6, rng);
  tensor::Arena arena;
  {
    tensor::Arena::StepScope scope(arena);
    const SequencePack pack(batch.sequences);
    const Tensor last = lstm.ForwardLast(pack);
    Tensor logits({last.Rows(), 6});
    head.ForwardInto(last.Data(), last.Rows(), logits.Data());
    SoftmaxCrossEntropy(logits, batch.labels);
  }
  EXPECT_EQ(eval_bytes, arena.Stats().short_high_water);

  const auto train_bytes = [&](double rate) {
    LstmClassifier classifier(6, 16, 6, 7, rate);
    classifier.ForwardBackward(batch);
    return classifier.ComputeArena().Stats().short_high_water;
  };
  const std::size_t states_bytes = batch.labels.size() * 16 * sizeof(float);
  EXPECT_EQ(train_bytes(0.2) - train_bytes(0.0), 3 * states_bytes);
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
