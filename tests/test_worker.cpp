// Unit tests for the training-harness building blocks: WorkerContext
// (gradient computation, delay injection, calibration), the evaluation
// monitor's stopping logic, and the configuration plumbing.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "rna/data/generators.hpp"
#include "rna/train/monitor.hpp"
#include "rna/train/run.hpp"
#include "rna/train/worker.hpp"

namespace rna::train {
namespace {

ModelFactory MlpFactory() {
  return [](std::uint64_t seed) {
    return std::make_unique<nn::MlpClassifier>(
        std::vector<std::size_t>{4, 8, 2}, seed);
  };
}

TrainerConfig SmallConfig(std::size_t world = 2) {
  TrainerConfig c;
  c.world = world;
  c.batch_size = 4;
  c.seed = 5;
  return c;
}

std::vector<float> Copy(std::span<const float> values) {
  return {values.begin(), values.end()};
}

// The parameters of a fresh replica, which every run starts from.
std::vector<float> InitialParams(const TrainerConfig& config,
                                 const ModelFactory& factory) {
  return Copy(factory(config.model_seed)->ParamsFlat());
}

TEST(WorkerContext, ProducesGradientsAndCountsIterations) {
  data::Dataset ds = data::MakeGaussianClusters(64, 4, 2, 0.4, 1);
  const TrainerConfig config = SmallConfig();
  WorkerContext worker(0, config, MlpFactory(), ds);
  const nn::BatchResult r = worker.ComputeGradient();
  EXPECT_EQ(r.total, 4u);
  EXPECT_EQ(worker.Iterations(), 1u);
  double norm = 0;
  for (float g : worker.Net().GradsFlat()) norm += static_cast<double>(g) * g;
  EXPECT_GT(norm, 0.0);
  EXPECT_GT(worker.Times().compute, 0.0);
}

TEST(WorkerContext, ShardsDifferAcrossRanks) {
  data::Dataset ds = data::MakeGaussianClusters(64, 4, 2, 0.4, 2);
  const TrainerConfig config = SmallConfig(2);
  WorkerContext w0(0, config, MlpFactory(), ds);
  WorkerContext w1(1, config, MlpFactory(), ds);
  w0.ComputeGradient();
  w1.ComputeGradient();
  // Different shards + different sampler seeds.
  EXPECT_NE(Copy(w0.Net().GradsFlat()), Copy(w1.Net().GradsFlat()));
}

TEST(WorkerContext, DelayInjectionAddsComputeTime) {
  data::Dataset ds = data::MakeGaussianClusters(64, 4, 2, 0.4, 3);
  TrainerConfig config = SmallConfig(1);
  config.delay_model =
      std::make_shared<sim::DeterministicSkewModel>(0.02, std::vector<double>{0.0});
  WorkerContext worker(0, config, MlpFactory(), ds);
  const common::Stopwatch watch;
  worker.ComputeGradient();
  EXPECT_GE(watch.Elapsed(), 0.018);
}

TEST(WorkerContext, DelayScaleCompresses) {
  data::Dataset ds = data::MakeGaussianClusters(64, 4, 2, 0.4, 3);
  TrainerConfig config = SmallConfig(1);
  config.delay_model =
      std::make_shared<sim::DeterministicSkewModel>(0.1, std::vector<double>{0.0});
  config.delay_scale = 0.05;  // 100 ms → 5 ms
  WorkerContext worker(0, config, MlpFactory(), ds);
  const common::Stopwatch watch;
  worker.ComputeGradient();
  const double t = watch.Elapsed();
  EXPECT_GE(t, 0.004);
  EXPECT_LT(t, 0.06);
}

TEST(WorkerContext, SequenceSleepScalesWithLength) {
  data::LengthModel lengths{.mean = 20, .stddev = 1, .min_len = 19,
                            .max_len = 21};
  data::Dataset ds = data::MakeSequenceDataset(32, 3, 2, lengths, 0.1, 4);
  TrainerConfig config = SmallConfig(1);
  config.batch_size = 4;
  config.sleep_per_step = 250e-6;  // ≈ 4 seq × 20 steps × 0.25 ms = 20 ms
  ModelFactory lstm = [](std::uint64_t seed) {
    return std::make_unique<nn::LstmClassifier>(3, 4, 2, seed, 0.0);
  };
  WorkerContext worker(0, config, lstm, ds);
  const common::Stopwatch watch;
  worker.ComputeGradient();
  EXPECT_GE(watch.Elapsed(), 0.015);
}

TEST(WorkerContext, CalibrationDoesNotPolluteCounters) {
  data::Dataset ds = data::MakeGaussianClusters(64, 4, 2, 0.4, 5);
  const TrainerConfig config = SmallConfig(1);
  WorkerContext worker(0, config, MlpFactory(), ds);
  const common::Seconds t = worker.MeasureIterationTime(4);
  EXPECT_GT(t, 0.0);
  EXPECT_EQ(worker.Iterations(), 0u);
  EXPECT_EQ(worker.Times().compute, 0.0);
}

// A fixed delay that logs the iteration of every draw.
class LoggingDelayModel final : public sim::IterationTimeModel {
 public:
  explicit LoggingDelayModel(common::Seconds delay) : delay_(delay) {}

  common::Seconds Sample(std::size_t, std::size_t iteration,
                         common::Rng&) const override {
    iterations_.push_back(iteration);
    return delay_;
  }

  const std::vector<std::size_t>& Iterations() const { return iterations_; }

 private:
  common::Seconds delay_;
  mutable std::vector<std::size_t> iterations_;
};

TEST(WorkerContext, CalibrationChargesTheDrawnDelayWithoutSleeping) {
  data::Dataset ds = data::MakeGaussianClusters(64, 4, 2, 0.4, 16);
  TrainerConfig config = SmallConfig(1);
  auto delays = std::make_shared<LoggingDelayModel>(0.020);
  config.delay_model = delays;
  WorkerContext worker(0, config, MlpFactory(), ds);

  const common::Stopwatch watch;
  const common::Seconds t = worker.MeasureIterationTime(4);
  const common::Seconds wall = watch.Elapsed();
  EXPECT_GE(t, 0.020);
  EXPECT_LT(wall, 0.020) << "calibration slept its drawn delays";
  EXPECT_EQ(delays->Iterations(), (std::vector<std::size_t>{0, 1, 2, 3}));

  // Training starts from the iteration calibration started from.
  worker.ComputeGradient();
  EXPECT_EQ(delays->Iterations(),
            (std::vector<std::size_t>{0, 1, 2, 3, 0}));
}

// Spins until the calling thread has used `s` seconds of CPU time.
void BurnCpu(common::Seconds s) {
  const common::Seconds until = common::ThreadCpuSeconds() + s;
  while (common::ThreadCpuSeconds() < until) {
  }
}

// MLP whose first ForwardBackward (the arena-pinning warm-up) is slow. It
// burns CPU time rather than sleeping: calibration charges a batch its
// thread CPU time, so a sleeping warm-up would not fail the test below
// even if the pin moved into the measured batches.
class SlowWarmupMlp final : public nn::MlpClassifier {
 public:
  explicit SlowWarmupMlp(std::uint64_t seed)
      : nn::MlpClassifier(std::vector<std::size_t>{4, 8, 2}, seed) {}

  nn::BatchResult ForwardBackward(const nn::Batch& batch) override {
    if (calls_++ == 0) BurnCpu(0.050);
    return nn::MlpClassifier::ForwardBackward(batch);
  }

 private:
  int calls_ = 0;
};

TEST(WorkerContext, CalibrationExcludesArenaPinWarmup) {
  // The pin runs before the measured batches: with it inside, two
  // calibration batches would average in the 50 ms warm-up (≥ 25 ms per
  // batch).
  data::Dataset ds = data::MakeGaussianClusters(64, 4, 2, 0.4, 15);
  const TrainerConfig config = SmallConfig(1);
  ModelFactory slow = [](std::uint64_t seed) {
    return std::make_unique<SlowWarmupMlp>(seed);
  };
  WorkerContext worker(0, config, slow, ds);
  ASSERT_TRUE(worker.Net().ArenaEnabled());
  EXPECT_LT(worker.MeasureIterationTime(2), 0.010);
  EXPECT_TRUE(worker.Net().ComputeArena().ExactMode());
}

// A run's initial parameters are rank 0's untouched replica, which equals
// a fresh replica built from config.model_seed; every worker starts there.
TEST(RunScaffold, InitialParamsAreAFreshReplica) {
  data::Dataset ds = data::MakeGaussianClusters(64, 4, 2, 0.4, 1);
  const TrainerConfig config = SmallConfig(3);
  train::Run run(config, MlpFactory(), ds, ds);
  const std::vector<float> fresh = InitialParams(config, MlpFactory());
  EXPECT_FALSE(fresh.empty());
  EXPECT_EQ(run.Init(), fresh);
  for (const auto& worker : run.Workers()) {
    EXPECT_EQ(Copy(worker->Net().ParamsFlat()), fresh)
        << "rank " << worker->Rank();
  }
}

TEST(EvalMonitor, RaisesStopOnTargetLoss) {
  data::Dataset val = data::MakeGaussianClusters(64, 4, 2, 0.4, 6);
  TrainerConfig config = SmallConfig(1);
  config.target_loss = 100.0;  // any model beats this
  config.eval_period_s = 0.005;

  const std::vector<float> params = InitialParams(config, MlpFactory());

  ParamBoard board(params);
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> rounds{1};
  EvalMonitor monitor(config, MlpFactory(), val);
  monitor.Start(board, stop, rounds);
  board.Publish(params, 1);  // give the monitor something new to evaluate
  const common::Stopwatch watch;
  while (!stop.load() && watch.Elapsed() < 2.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  monitor.Finish();
  EXPECT_TRUE(stop.load());
  EXPECT_TRUE(monitor.ReachedTarget());
  ASSERT_FALSE(monitor.Curve().empty());
  EXPECT_EQ(monitor.Curve().back().round, 1u);
}

TEST(EvalMonitor, EarlyStopsAfterPatience) {
  data::Dataset val = data::MakeGaussianClusters(64, 4, 2, 0.4, 7);
  TrainerConfig config = SmallConfig(1);
  config.patience = 3;
  config.eval_period_s = 0.003;

  const std::vector<float> params = InitialParams(config, MlpFactory());

  ParamBoard board(params);
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> rounds{0};
  EvalMonitor monitor(config, MlpFactory(), val);
  monitor.Start(board, stop, rounds);
  // Keep publishing the same parameters: loss never improves → patience.
  const common::Stopwatch watch;
  std::int64_t version = 0;
  while (!stop.load() && watch.Elapsed() < 3.0) {
    board.Publish(params, ++version);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  monitor.Finish();
  EXPECT_TRUE(monitor.EarlyStopped());
}

TEST(EvaluateDataset, CapsSampleCount) {
  data::Dataset ds = data::MakeGaussianClusters(100, 4, 2, 0.4, 8);
  auto net = MlpFactory()(1);
  nn::Network* const replica = net.get();
  const std::vector<float> params = Copy(net->ParamsFlat());
  const nn::BatchResult capped =
      EvaluateDataset({&replica, 1}, params, ds, 10);
  EXPECT_EQ(capped.total, 10u);
  const nn::BatchResult full = EvaluateDataset({&replica, 1}, params, ds);
  EXPECT_EQ(full.total, 100u);
}

// EvaluateDataset with 1, 2 and 4 replicas of `factory`'s model must agree
// bit for bit, and with one Evaluate of the whole evaluated range.
void ExpectReplicaCountInvariant(const ModelFactory& factory,
                                 const data::Dataset& ds,
                                 std::size_t max_samples) {
  std::vector<std::unique_ptr<nn::Network>> nets;
  std::vector<nn::Network*> replicas;
  for (int i = 0; i < 4; ++i) {
    nets.push_back(factory(3));
    replicas.push_back(nets.back().get());
  }
  // Nudged off the initial parameters, so the logits are far from uniform.
  std::vector<float> params = Copy(nets[0]->ParamsFlat());
  common::Rng rng(17);
  for (float& p : params) p += 0.3f * static_cast<float>(rng.Normal());

  const std::size_t limit = max_samples > 0 ? max_samples : ds.Size();
  const nn::BatchResult one =
      EvaluateDataset({replicas.data(), 1}, params, ds, max_samples);
  EXPECT_EQ(one.total, limit);
  for (const std::size_t n : {2u, 4u}) {
    SCOPED_TRACE(n);
    const nn::BatchResult many =
        EvaluateDataset({replicas.data(), n}, params, ds, max_samples);
    EXPECT_EQ(many.loss, one.loss);  // bitwise
    EXPECT_EQ(many.correct, one.correct);
    EXPECT_EQ(many.total, one.total);
  }

  auto whole_net = factory(3);
  std::copy(params.begin(), params.end(), whole_net->ParamsFlat().begin());
  const nn::BatchResult whole =
      whole_net->Evaluate(data::ShardView::All(ds).MakeBatchRange(0, limit));
  EXPECT_EQ(one.correct, whole.correct);
  EXPECT_NEAR(one.loss, whole.loss, 1e-12 * whole.loss);
}

TEST(EvaluateDataset, ReplicaCountDoesNotChangeTheResult) {
  {
    SCOPED_TRACE("250 sequences, not a multiple of the slice");
    data::LengthModel lengths{.mean = 10, .stddev = 5, .min_len = 2,
                              .max_len = 30};
    const data::Dataset ds =
        data::MakeSequenceDataset(250, 3, 3, lengths, 0.5, 21);
    const ModelFactory lstm = [](std::uint64_t seed) {
      return std::make_unique<nn::LstmClassifier>(3, 8, 3, seed, 0.0);
    };
    ExpectReplicaCountInvariant(lstm, ds, 0);
  }
  {
    SCOPED_TRACE("1000 dense samples capped at 333");
    const data::Dataset ds = data::MakeGaussianClusters(1000, 4, 2, 1.5, 22);
    ExpectReplicaCountInvariant(MlpFactory(), ds, 333);
  }
}

TEST(WorkerContext, ArenaPinnedAfterWarmupWithZeroChunkGrowth) {
  // Variable-length sequences are the hard case: the warm-up pin must
  // cover the worst batch the sampler can emit, so later (shorter) batches
  // never grow the arena — and the worst batch itself fits exactly.
  data::LengthModel lengths{.mean = 12, .stddev = 6, .min_len = 4,
                            .max_len = 24};
  data::Dataset ds = data::MakeSequenceDataset(48, 3, 2, lengths, 0.1, 9);
  TrainerConfig config = SmallConfig(1);
  config.batch_size = 4;
  ModelFactory lstm = [](std::uint64_t seed) {
    return std::make_unique<nn::LstmClassifier>(3, 4, 2, seed, 0.0);
  };
  WorkerContext worker(0, config, lstm, ds);

  worker.ComputeGradient();
  const tensor::Arena& arena = worker.Net().ComputeArena();
  EXPECT_TRUE(arena.ExactMode());
  const std::size_t chunks_after_warmup = arena.Stats().chunk_allocs;

  for (int i = 0; i < 8; ++i) worker.ComputeGradient();
  EXPECT_EQ(arena.Stats().chunk_allocs, chunks_after_warmup);
  EXPECT_TRUE(arena.ExactMode());
}

TEST(WorkerContext, ArenaPinSkippedWhenArenaDisabled) {
  data::Dataset ds = data::MakeGaussianClusters(64, 4, 2, 0.4, 10);
  const TrainerConfig config = SmallConfig(1);
  ModelFactory no_arena = [](std::uint64_t seed) {
    auto net = std::make_unique<nn::MlpClassifier>(
        std::vector<std::size_t>{4, 8, 2}, seed);
    net->EnableArena(false);
    return net;
  };
  WorkerContext worker(0, config, no_arena, ds);
  worker.ComputeGradient();
  EXPECT_FALSE(worker.Net().ComputeArena().ExactMode());
}

TEST(EvaluateDataset, RelaxesPinnedTrainingReplica) {
  // The terminal evaluation reuses a worker's pinned replica with far
  // larger batches; EvaluateDataset must leave exact mode first instead
  // of tripping the capacity contract.
  data::LengthModel lengths{.mean = 12, .stddev = 6, .min_len = 4,
                            .max_len = 24};
  data::Dataset ds = data::MakeSequenceDataset(64, 3, 2, lengths, 0.1, 11);
  TrainerConfig config = SmallConfig(1);
  config.batch_size = 4;
  ModelFactory lstm = [](std::uint64_t seed) {
    return std::make_unique<nn::LstmClassifier>(3, 4, 2, seed, 0.0);
  };
  WorkerContext worker(0, config, lstm, ds);
  std::vector<float> params = InitialParams(config, lstm);
  worker.ComputeGradient();
  ASSERT_TRUE(worker.Net().ComputeArena().ExactMode());
  nn::Network* const replica = &worker.Net();
  const nn::BatchResult r = EvaluateDataset({&replica, 1}, params, ds);
  EXPECT_EQ(r.total, 64u);
  EXPECT_FALSE(worker.Net().ComputeArena().ExactMode());
}

TEST(EvaluateDataset, PinnedReplicaGrowsToOneSliceAtMost) {
  // The end-of-run pass must not grow a training replica's arena past one
  // kEvalSliceSamples-sample evaluation, however large the dataset. With
  // every sequence the same length, each full slice needs the same scratch
  // as a fresh replica's one 96-sample batch; a replica whose training pin
  // already covers that must not grow at all.
  data::LengthModel lengths{.mean = 20, .stddev = 0, .min_len = 20,
                            .max_len = 20};
  data::Dataset ds = data::MakeSequenceDataset(640, 3, 2, lengths, 0.1, 23);
  TrainerConfig config = SmallConfig(1);
  config.batch_size = 4;
  ModelFactory lstm = [](std::uint64_t seed) {
    return std::make_unique<nn::LstmClassifier>(3, 16, 2, seed, 0.0);
  };
  WorkerContext worker(0, config, lstm, ds);
  std::vector<float> params = InitialParams(config, lstm);
  worker.ComputeGradient();
  ASSERT_TRUE(worker.Net().ComputeArena().ExactMode());
  const std::size_t pinned =
      worker.Net().ComputeArena().Stats().short_high_water;
  nn::Network* const replica = &worker.Net();
  EXPECT_EQ(EvaluateDataset({&replica, 1}, params, ds).total, 640u);

  auto fresh = lstm(config.model_seed);
  std::copy(params.begin(), params.end(), fresh->ParamsFlat().begin());
  fresh->Evaluate(
      data::ShardView::All(ds).MakeBatchRange(0, kEvalSliceSamples));
  EXPECT_LE(worker.Net().ComputeArena().Stats().short_high_water,
            std::max(pinned, fresh->ComputeArena().Stats().short_high_water));
}

TEST(WorkerContext, SteadyStateConsumesPrefetchedBatches) {
  // The acceptance criterion for the streaming data plane: steady-state
  // steps pop pre-assembled batches off the generator's queue instead of
  // assembling inline on the compute path.
  data::Dataset ds = data::MakeGaussianClusters(64, 4, 2, 0.4, 12);
  TrainerConfig config = SmallConfig(1);
  WorkerContext worker(0, config, MlpFactory(), ds);
  for (int i = 0; i < 6; ++i) worker.ComputeGradient();
  EXPECT_EQ(worker.Generator().PrefetchedPops(), 6u);
  EXPECT_EQ(worker.Generator().SynchronousAssemblies(), 0u);
}

TEST(WorkerContext, OverflowRankTrainsOnSharedShard) {
  // Regression: world > dataset size used to hand overflow ranks an empty
  // shard and abort in the sampler. They now train on the shared view.
  data::Dataset ds = data::MakeGaussianClusters(10, 4, 2, 0.4, 14);
  TrainerConfig config = SmallConfig(30);
  WorkerContext worker(25, config, MlpFactory(), ds);
  EXPECT_TRUE(worker.Shard().SharedFallback());
  EXPECT_EQ(worker.Shard().Size(), 10u);
  const nn::BatchResult r = worker.ComputeGradient();
  EXPECT_EQ(r.total, config.batch_size);
}

TEST(Config, ProtocolNamesAreStable) {
  EXPECT_STREQ(ProtocolName(Protocol::kHorovod), "horovod");
  EXPECT_STREQ(ProtocolName(Protocol::kRna), "rna");
  EXPECT_STREQ(ProtocolName(Protocol::kRnaHierarchical), "rna-h");
}

}  // namespace
}  // namespace rna::train
