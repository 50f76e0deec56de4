// End-to-end integration tests: every synchronization protocol trains a
// small MLP on separable synthetic data and must actually learn it. These
// exercise the full stack — fabric, collectives, stages, controller,
// parameter server, monitor — under real thread concurrency.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "rna/baselines/baselines.hpp"
#include "rna/common/clock.hpp"
#include "rna/core/rna.hpp"
#include "rna/data/generators.hpp"
#include "rna/obs/export.hpp"
#include "rna/obs/session.hpp"
#include "rna/train/monitor.hpp"
#include "rna/train/group_engine.hpp"

namespace rna {
namespace {

using core::RunTraining;
using train::ModelFactory;
using train::Protocol;
using train::TrainerConfig;
using train::TrainResult;

struct Scenario {
  data::Dataset train;
  data::Dataset val;
  ModelFactory factory;
};

Scenario MakeMlpScenario(std::uint64_t seed = 1) {
  Scenario s;
  data::Dataset all = data::MakeGaussianClusters(1200, 8, 4, 0.35, seed);
  std::tie(s.train, s.val) = all.SplitHoldout(0.2);
  s.factory = [](std::uint64_t model_seed) {
    return std::make_unique<nn::MlpClassifier>(
        std::vector<std::size_t>{8, 24, 4}, model_seed);
  };
  return s;
}

TrainerConfig BaseConfig(Protocol protocol, std::size_t rounds = 120) {
  TrainerConfig c;
  c.protocol = protocol;
  c.world = 4;
  c.batch_size = 16;
  c.sgd.learning_rate = 0.15;
  c.sgd.momentum = 0.9;
  c.max_rounds = rounds;
  c.patience = 0;          // no early stop: deterministic round count
  c.eval_period_s = 0.01;
  c.seed = 99;
  return c;
}

void ExpectLearned(const TrainResult& r, double min_accuracy = 0.78) {
  EXPECT_GT(r.rounds, 0u);
  EXPECT_GT(r.gradients_applied, 0u);
  EXPECT_GT(r.final_accuracy, min_accuracy);
  EXPECT_LT(r.final_loss, 0.9);  // well below ln(4) ≈ 1.386
  EXPECT_GT(r.wall_seconds, 0.0);
}

TEST(Integration, HorovodLearns) {
  Scenario s = MakeMlpScenario();
  const TrainResult r = RunTraining(BaseConfig(Protocol::kHorovod), s.factory,
                                    s.train, s.val);
  ExpectLearned(r);
  EXPECT_EQ(r.rounds, 120u);
  EXPECT_EQ(r.gradients_applied, 120u * 4);  // BSP: everyone, every round
  ASSERT_EQ(r.breakdown.size(), 4u);
  for (const auto& b : r.breakdown) {
    EXPECT_EQ(b.iterations, 120u);
    EXPECT_GT(b.compute, 0.0);
  }
}

TEST(Integration, RnaLearns) {
  Scenario s = MakeMlpScenario();
  const TrainResult r =
      RunTraining(BaseConfig(Protocol::kRna, 250), s.factory, s.train, s.val);
  ExpectLearned(r);
  EXPECT_EQ(r.rounds, 250u);
  EXPECT_GT(r.gradients_applied, 0u);
  ASSERT_EQ(r.breakdown.size(), 4u);
}

TEST(Integration, EagerSgdLearns) {
  // eager-SGD's diluted updates (÷N with stale/absent workers) learn more
  // slowly per round than RNA's re-weighted ones; give it a longer budget.
  Scenario s = MakeMlpScenario();
  const TrainResult r = RunTraining(BaseConfig(Protocol::kEagerSgd, 450),
                                    s.factory, s.train, s.val);
  ExpectLearned(r, 0.72);
}

TEST(Integration, AdPsgdLearns) {
  Scenario s = MakeMlpScenario();
  TrainerConfig c = BaseConfig(Protocol::kAdPsgd, 300);
  c.sgd.learning_rate = 0.1;  // plain SGD (no momentum in gossip averaging)
  const TrainResult r = RunTraining(c, s.factory, s.train, s.val);
  ExpectLearned(r, 0.7);
}

TEST(Integration, HierarchicalRnaLearns) {
  Scenario s = MakeMlpScenario();
  TrainerConfig c = BaseConfig(Protocol::kRnaHierarchical);
  // Two deterministic speed tiers (the slow tier 3× the fast one, matching
  // the paper's heterogeneity regime) so calibration forms two groups; both
  // groups keep making progress and the PS averages them.
  c.delay_model = std::make_shared<sim::DeterministicSkewModel>(
      0.001, std::vector<double>{0.0, 0.0, 0.002, 0.002});
  c.calibration_iters = 4;
  const TrainResult r = RunTraining(c, s.factory, s.train, s.val);
  ExpectLearned(r, 0.75);
}

#ifdef __SANITIZE_THREAD__  // -fsanitize=thread (the tsan preset)
constexpr bool kUnderTsan = true;
#else
constexpr bool kUnderTsan = false;
#endif

TEST(Integration, HierarchicalRnaCalibratesRanksConcurrently) {
  // Three 1 ms ranks and three 10 ms ranks, four calibration batches each.
  // Calibrated one rank after another with the injected delays slept,
  // RunTraining would spend Σ_w 4 × delay_w = 132 ms outside its training
  // clock; calibrated concurrently, the slowest rank's 4 × 10 ms. The
  // calibration charges each delay without sleeping it, so the phase takes
  // less than even that.
  constexpr double kSerialSleepFloor = 4 * (3 * 0.001 + 3 * 0.010);
  constexpr double kSlowRankDelays = 4 * 0.010;
  Scenario s = MakeMlpScenario();
  TrainerConfig c = BaseConfig(Protocol::kRnaHierarchical, 30);
  c.world = 6;
  c.delay_model = std::make_shared<sim::DeterministicSkewModel>(
      0.001, std::vector<double>{0.0, 0.0, 0.0, 0.009, 0.009, 0.009});
  c.calibration_iters = 4;

  obs::Session session;
  const common::Stopwatch watch;
  const TrainResult r = RunTraining(c, s.factory, s.train, s.val);
  const double outside_training_clock = watch.Elapsed() - r.wall_seconds;

  EXPECT_EQ(session.Metrics().GaugeValue("hier.groups"), 2.0);
  // ThreadSanitizer slows the CPU-bound work around the phase (building
  // the workers, the final evaluations) about tenfold, so under it only
  // the phase's own span below is held to the floor.
  if (!kUnderTsan) {
    EXPECT_LT(outside_training_clock, kSerialSleepFloor);
  }

  // The phase is one `calibration` span on the main track, ahead of the
  // training clock, carrying the group count and the batches per rank.
  const auto tracks = session.Trace().Snapshot();
  const auto main_track =
      std::find_if(tracks.begin(), tracks.end(),
                   [](const auto& track) { return track.name == "main"; });
  ASSERT_NE(main_track, tracks.end());
  const obs::Span* calibration = nullptr;
  const obs::Span* train_total = nullptr;
  for (const obs::Span& span : main_track->spans) {
    if (std::strcmp(span.name, "calibration") == 0) calibration = &span;
    if (std::strcmp(span.name, "train_total") == 0) train_total = &span;
  }
  ASSERT_NE(calibration, nullptr);
  ASSERT_NE(train_total, nullptr);
  EXPECT_STREQ(calibration->arg_keys[0], "groups");
  EXPECT_EQ(calibration->arg_vals[0], 2.0);
  EXPECT_STREQ(calibration->arg_keys[1], "iters");
  EXPECT_EQ(calibration->arg_vals[1], 4.0);
  EXPECT_LT(calibration->duration, kSerialSleepFloor);
  if (!kUnderTsan) {
    EXPECT_LT(calibration->duration, kSlowRankDelays)
        << "calibration slept its drawn delays";
  }
  EXPECT_LE(calibration->start + calibration->duration, train_total->start);

  // It survives the Chrome export and the strict parser.
  std::stringstream io;
  obs::ExportChromeTrace(session.Trace(), io);
  const obs::ParsedTrace parsed = obs::ParseChromeTrace(io);
  const auto exported = std::find_if(
      parsed.events.begin(), parsed.events.end(),
      [](const obs::TraceEvent& ev) { return ev.name == "calibration"; });
  ASSERT_NE(exported, parsed.events.end());
  EXPECT_EQ(exported->args.at("groups"), 2.0);
  EXPECT_EQ(exported->args.at("iters"), 4.0);
}

TEST(Integration, HierarchicalRnaCalibrationFailureReachesTheCaller) {
  // A rank that throws while it calibrates on its own thread must surface
  // as an exception from RunTraining, not end the process.
  class FailingMlp final : public nn::MlpClassifier {
   public:
    explicit FailingMlp(std::uint64_t seed)
        : nn::MlpClassifier(std::vector<std::size_t>{8, 24, 4}, seed) {}
    nn::BatchResult ForwardBackward(const nn::Batch&) override {
      throw std::runtime_error("model failed");
    }
  };
  Scenario s = MakeMlpScenario();
  s.factory = [](std::uint64_t seed) {
    return std::make_unique<FailingMlp>(seed);
  };
  TrainerConfig c = BaseConfig(Protocol::kRnaHierarchical, 10);
  EXPECT_THROW(RunTraining(c, s.factory, s.train, s.val), std::runtime_error);
}

TEST(Integration, HierarchicalRnaIssuesStragglerVerdicts) {
  // Ranks 0-2 take 2 ms a batch and rank 3 takes 3 ms: zeta = 1 ms is not
  // above v = 2.25 ms, so rna-h forms one speed group, and its controller
  // must hand kStragglar the same persistent-straggler verdicts that flat
  // RNA's controller does.
  Scenario s = MakeMlpScenario();
  for (const Protocol protocol :
       {Protocol::kRnaHierarchical, Protocol::kRna}) {
    SCOPED_TRACE(train::ProtocolName(protocol));
    TrainerConfig c = BaseConfig(protocol, 80);
    c.delay_model = std::make_shared<sim::DeterministicSkewModel>(
        0.002, std::vector<double>{0.0, 0.0, 0.0, 0.001});
    // ThreadSanitizer slows each round's messaging several-fold but not
    // the injected sleeps, so every rank is ready at nearly every trigger
    // and the straggler all but vanishes; longer sleeps restore the
    // regime this test is about.
    c.delay_scale = kUnderTsan ? 5.0 : 1.0;
    c.schedule = collectives::Schedule::kStragglar;
    // A gentle optimizer: at BaseConfig's lr 0.15 / momentum 0.9 one run
    // in ten ends an 80-round run above chance loss, ring or not.
    c.sgd.learning_rate = 0.05;
    c.sgd.momentum = 0.5;

    obs::Session session;
    const TrainResult r = RunTraining(c, s.factory, s.train, s.val);

    if (protocol == Protocol::kRnaHierarchical) {
      EXPECT_EQ(session.Metrics().GaugeValue("hier.groups"), 1.0);
    }
    EXPECT_GT(session.Metrics().CounterValue("round.straggler_verdicts"), 0);
    EXPECT_EQ(r.live_workers, 4u);
    EXPECT_LT(r.final_loss, 1.386);  // chance: ln(4)
  }
}

TEST(Integration, HierarchicalRnaKeepsThePayloadPoolBalanced) {
  // Two speed groups, each leader syncing through the PS every round. A
  // leader adopts the PS reply's pooled storage as its model and recycles
  // the storage it replaces, and an acquire takes the smallest pooled
  // buffer that fits. So the pool stops allocating once it is warm, and
  // every buffer acquired comes back to it.
  struct PoolCounts {
    std::int64_t hits, misses, recycled;
  };
  Scenario s = MakeMlpScenario();
  auto run = [&](std::size_t rounds) {
    TrainerConfig c = BaseConfig(Protocol::kRnaHierarchical, rounds);
    c.lockstep = true;
    c.calibration_iters = 2;
    c.delay_model = std::make_shared<sim::DeterministicSkewModel>(
        0.0005, std::vector<common::Seconds>{0.0, 0.0, 0.002, 0.002});
    obs::Session session;
    const TrainResult r = RunTraining(c, s.factory, s.train, s.val);
    EXPECT_EQ(r.rounds, rounds);
    EXPECT_EQ(session.Metrics().GaugeValue("hier.groups"), 2.0);
    const obs::MetricsRegistry& m = session.Metrics();
    return PoolCounts{m.CounterValue("fabric.pool.hits"),
                      m.CounterValue("fabric.pool.misses"),
                      m.CounterValue("fabric.pool.recycled")};
  };
  const PoolCounts warm = run(50);
  const PoolCounts long_run = run(200);
  EXPECT_LT(long_run.misses, 32);
  // 150 more rounds add no misses beyond thread-timing noise in which
  // buffer is pooled when (a leaking pool adds several per round).
  EXPECT_LE(long_run.misses, warm.misses + 8)
      << "50 rounds: " << warm.misses << ", 200 rounds: " << long_run.misses;
  EXPECT_GT(long_run.hits, warm.hits);
  EXPECT_EQ(long_run.recycled, long_run.hits + long_run.misses);
}

TEST(Integration, RnaStopsAtTargetLoss) {
  Scenario s = MakeMlpScenario();
  TrainerConfig c = BaseConfig(Protocol::kRna, 100000);
  c.target_loss = 0.5;
  c.eval_period_s = 0.005;
  const TrainResult r = RunTraining(c, s.factory, s.train, s.val);
  EXPECT_TRUE(r.reached_target);
  EXPECT_LT(r.rounds, 100000u);
  EXPECT_LT(r.final_loss, 0.7);  // near the target at stop time
}

TEST(Integration, HorovodEarlyStopsOnPatience) {
  Scenario s = MakeMlpScenario();
  TrainerConfig c = BaseConfig(Protocol::kHorovod, 100000);
  c.patience = 8;
  c.eval_period_s = 0.005;
  const TrainResult r = RunTraining(c, s.factory, s.train, s.val);
  EXPECT_TRUE(r.early_stopped || r.reached_target);
  EXPECT_LT(r.rounds, 100000u);
}

TEST(Integration, RnaWithStragglersStillLearns) {
  Scenario s = MakeMlpScenario();
  TrainerConfig c = BaseConfig(Protocol::kRna);
  // One worker consistently 5 ms slower: the partial collective must keep
  // the rest productive and convergence intact.
  c.max_rounds = 250;
  c.delay_model = std::make_shared<sim::DeterministicSkewModel>(
      0.0, std::vector<double>{0.005, 0.0, 0.0, 0.0});
  const TrainResult r = RunTraining(c, s.factory, s.train, s.val);
  ExpectLearned(r, 0.72);
}

TEST(Integration, RnaFasterThanHorovodUnderStragglers) {
  // The headline claim, miniaturized: same round count, injected random
  // slowdowns — RNA's wall time per round must beat BSP's.
  Scenario s = MakeMlpScenario();
  auto delays = std::make_shared<sim::UniformSlowdownModel>(0.0, 0.0, 0.006);

  TrainerConfig bsp = BaseConfig(Protocol::kHorovod, 60);
  bsp.delay_model = delays;
  TrainerConfig rna = BaseConfig(Protocol::kRna, 60);
  rna.delay_model = delays;

  const TrainResult rb = RunTraining(bsp, s.factory, s.train, s.val);
  const TrainResult rr = RunTraining(rna, s.factory, s.train, s.val);
  EXPECT_LT(rr.MeanRoundTime(), rb.MeanRoundTime());
}

TEST(Integration, LrPolicyConstantAlsoConverges) {
  // Constant LR under partial participation is the fragile configuration
  // the Linear Scaling Rule exists to avoid (§3.3); with the full-strength
  // step applied every partial round it only converges with a gentler
  // optimizer, so this ablation uses reduced momentum.
  Scenario s = MakeMlpScenario();
  TrainerConfig c = BaseConfig(Protocol::kRna);
  c.lr_policy = train::LrScalePolicy::kConstant;
  c.sgd.momentum = 0.5;
  const TrainResult r = RunTraining(c, s.factory, s.train, s.val);
  ExpectLearned(r, 0.75);
}

TEST(Integration, CombinePolicies) {
  Scenario s = MakeMlpScenario();
  for (auto combine : {train::LocalCombine::kWeightedAverage,
                       train::LocalCombine::kMean,
                       train::LocalCombine::kLatest}) {
    TrainerConfig c = BaseConfig(Protocol::kRna, 200);
    c.combine = combine;
    const TrainResult r = RunTraining(c, s.factory, s.train, s.val);
    // Round composition under real thread timing is nondeterministic, and
    // kLatest deliberately discards buffered work, so the bar is modest;
    // all three combine policies must still learn.
    EXPECT_GT(r.final_accuracy, 0.6)
        << "combine policy " << static_cast<int>(combine);
    EXPECT_LT(r.final_loss, 1.1);
  }
}

TEST(Integration, SingleWorkerDegeneratesGracefully) {
  Scenario s = MakeMlpScenario();
  TrainerConfig c = BaseConfig(Protocol::kRna, 150);
  c.world = 1;
  // RunTraining now validates probe_choices <= world instead of silently
  // capping; a single-worker run probes its only worker.
  c.probe_choices = 1;
  const TrainResult r = RunTraining(c, s.factory, s.train, s.val);
  ExpectLearned(r, 0.7);
}

TEST(Integration, SoloPolicyTrainsViaEngine) {
  // The solo collective is the most aggressive trigger — the paper notes it
  // can hurt convergence (§7.3), so this test only demands that the engine
  // runs it correctly and still learns with a gentle optimizer.
  Scenario s = MakeMlpScenario();
  TrainerConfig c = BaseConfig(Protocol::kRna, 300);
  c.sgd.learning_rate = 0.05;
  c.sgd.momentum = 0.0;
  const TrainResult r = train::RunPartialCollective(
      c, s.factory, s.train, s.val, [] { return train::MakeSoloPolicy(); });
  EXPECT_EQ(r.rounds, 300u);
  EXPECT_GT(r.final_accuracy, 0.5);
  EXPECT_LT(r.final_loss, 1.3);
}

TEST(Integration, LrDecayScheduleFreezesTraining) {
  // Decaying the learning rate to zero after a handful of rounds must
  // freeze the model near its initial loss — a behavioural check that the
  // schedule fires identically on every worker.
  Scenario s = MakeMlpScenario();
  TrainerConfig frozen = BaseConfig(Protocol::kRna, 150);
  frozen.lr_decay_rounds = {1};
  frozen.lr_decay_factor = 0.0;
  const TrainResult rf = RunTraining(frozen, s.factory, s.train, s.val);

  TrainerConfig normal = BaseConfig(Protocol::kRna, 150);
  const TrainResult rn = RunTraining(normal, s.factory, s.train, s.val);

  EXPECT_GT(rf.final_loss, 1.0);        // barely moved from ln(4)≈1.386
  EXPECT_LT(rn.final_loss, 0.8);        // normal run learns
  EXPECT_GT(rf.final_loss, rn.final_loss + 0.3);
}

TEST(Integration, LrDecayScheduleOnHorovod) {
  Scenario s = MakeMlpScenario();
  TrainerConfig c = BaseConfig(Protocol::kHorovod, 120);
  c.lr_decay_rounds = {1};
  c.lr_decay_factor = 0.0;
  const TrainResult r = RunTraining(c, s.factory, s.train, s.val);
  EXPECT_GT(r.final_loss, 1.0);
}

TEST(Integration, FinalParamsMatchReportedAccuracy) {
  // The returned final_params must be the model the final metrics describe.
  // The run evaluated them on several replicas and this check on one; the
  // slice-order combine makes the two agree bit for bit.
  Scenario s = MakeMlpScenario();
  TrainerConfig c = BaseConfig(Protocol::kRna, 100);
  const TrainResult r = RunTraining(c, s.factory, s.train, s.val);
  ASSERT_FALSE(r.final_params.empty());
  auto net = s.factory(c.model_seed);
  ASSERT_EQ(r.final_params.size(), net->ParamCount());
  nn::Network* const replica = net.get();
  const nn::BatchResult eval =
      train::EvaluateDataset({&replica, 1}, r.final_params, s.val);
  EXPECT_EQ(eval.loss, r.final_loss);
  EXPECT_EQ(eval.Accuracy(), r.final_accuracy);
}

TEST(Integration, FinalTrainLossCoversTheLeadingTrainingSamples) {
  // final_train_loss is the loss of final_params on the first
  // kFinalTrainSamples training samples, not on the whole set.
  Scenario s = MakeMlpScenario();
  data::Dataset all = data::MakeGaussianClusters(3000, 8, 4, 0.35, 1);
  std::tie(s.train, s.val) = all.SplitHoldout(0.2);
  ASSERT_GT(s.train.Size(), train::kFinalTrainSamples);
  TrainerConfig c = BaseConfig(Protocol::kHorovod, 40);
  const TrainResult r = RunTraining(c, s.factory, s.train, s.val);
  auto net = s.factory(c.model_seed);
  nn::Network* const replica = net.get();
  const nn::BatchResult leading = train::EvaluateDataset(
      {&replica, 1}, r.final_params, s.train, train::kFinalTrainSamples);
  EXPECT_EQ(leading.total, train::kFinalTrainSamples);
  EXPECT_EQ(r.final_train_loss, leading.loss);
  EXPECT_NE(r.final_train_loss,
            train::EvaluateDataset({&replica, 1}, r.final_params, s.train)
                .loss);
}

TEST(Integration, FinalEvaluationIsOneSpanAfterTraining) {
  // The end-of-run pass is one `final_eval` span on the main track, after
  // the training clock, carrying the replicas it ran on and its slices.
  Scenario s = MakeMlpScenario();
  const TrainerConfig c = BaseConfig(Protocol::kRna, 30);
  obs::Session session;
  RunTraining(c, s.factory, s.train, s.val);

  // 240 validation samples and 960 training samples, in 96-sample slices.
  const double slices = 3 + 10;
  const double replicas = static_cast<double>(std::min<std::size_t>(
      {c.world + 1, std::max(1u, std::thread::hardware_concurrency()), 13}));
  const auto tracks = session.Trace().Snapshot();
  const auto main_track =
      std::find_if(tracks.begin(), tracks.end(),
                   [](const auto& track) { return track.name == "main"; });
  ASSERT_NE(main_track, tracks.end());
  const obs::Span* final_eval = nullptr;
  const obs::Span* train_total = nullptr;
  for (const obs::Span& span : main_track->spans) {
    if (std::strcmp(span.name, "final_eval") == 0) final_eval = &span;
    if (std::strcmp(span.name, "train_total") == 0) train_total = &span;
  }
  ASSERT_NE(final_eval, nullptr);
  ASSERT_NE(train_total, nullptr);
  EXPECT_STREQ(final_eval->arg_keys[0], "replicas");
  EXPECT_EQ(final_eval->arg_vals[0], replicas);
  EXPECT_STREQ(final_eval->arg_keys[1], "slices");
  EXPECT_EQ(final_eval->arg_vals[1], slices);
  EXPECT_GE(final_eval->start, train_total->start + train_total->duration);
  EXPECT_GT(final_eval->duration, 0.0);

  std::stringstream io;
  obs::ExportChromeTrace(session.Trace(), io);
  const obs::ParsedTrace parsed = obs::ParseChromeTrace(io);
  const auto exported = std::find_if(
      parsed.events.begin(), parsed.events.end(),
      [](const obs::TraceEvent& ev) { return ev.name == "final_eval"; });
  ASSERT_NE(exported, parsed.events.end());
  EXPECT_EQ(exported->args.at("replicas"), replicas);
  EXPECT_EQ(exported->args.at("slices"), slices);
}

TEST(Integration, FinalEvaluationFailureReachesTheCaller) {
  // A replica that throws in the end-of-run pass, on the calling thread or
  // on a helper, must surface as an exception from RunTraining once every
  // helper is joined, not end the process. Only batches larger than the
  // monitor's subsample throw, so training and its periodic evals finish.
  constexpr std::size_t kSubsample = 32;
  class FailingMlp final : public nn::MlpClassifier {
   public:
    explicit FailingMlp(std::uint64_t seed)
        : nn::MlpClassifier(std::vector<std::size_t>{8, 24, 4}, seed) {}
    nn::BatchResult Evaluate(const nn::Batch& batch) override {
      if (batch.Size() > kSubsample) {
        throw std::runtime_error("final evaluation failed");
      }
      return nn::MlpClassifier::Evaluate(batch);
    }
  };
  Scenario s = MakeMlpScenario();
  s.factory = [](std::uint64_t seed) {
    return std::make_unique<FailingMlp>(seed);
  };
  for (const Protocol protocol : {Protocol::kRna, Protocol::kHorovod}) {
    SCOPED_TRACE(train::ProtocolName(protocol));
    TrainerConfig c = BaseConfig(protocol, 20);
    c.eval_samples = kSubsample;
    try {
      RunTraining(c, s.factory, s.train, s.val);
      ADD_FAILURE() << "RunTraining returned";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "final evaluation failed");
    }
  }
}

TEST(Integration, LstmSequenceWorkloadLearns) {
  // The inherent-load-imbalance workload end to end (scaled far down).
  data::LengthModel lengths{.mean = 12, .stddev = 6, .min_len = 4,
                            .max_len = 32};
  data::Dataset all = data::MakeSequenceDataset(360, 6, 3, lengths, 0.05, 3);
  auto [train_ds, val_ds] = all.SplitHoldout(0.2);
  ModelFactory factory = [](std::uint64_t seed) {
    return std::make_unique<nn::LstmClassifier>(6, 16, 3, seed, 0.0);
  };
  TrainerConfig c = BaseConfig(Protocol::kRna, 150);
  c.batch_size = 8;
  c.sgd.learning_rate = 0.3;
  const train::TrainResult r =
      RunTraining(c, factory, train_ds, val_ds);
  EXPECT_GT(r.final_accuracy, 0.6);
  EXPECT_LT(r.final_loss, 1.0);  // below ln(3) ≈ 1.099
}

}  // namespace
}  // namespace rna
