// Property sweeps across every synchronization protocol and several world
// sizes: each must actually learn the same separable task, the result
// structure must satisfy the invariants the benches rely on, and a
// fault-free run must never reach a deadline. Runs the full threaded stack
// per case, so budgets are kept small.

#include <gtest/gtest.h>

#include <memory>
#include <string_view>
#include <thread>

#include "rna/collectives/allreduce.hpp"
#include "rna/core/rna.hpp"
#include "rna/data/generators.hpp"
#include "rna/net/fabric.hpp"
#include "rna/obs/session.hpp"

namespace rna {
namespace {

using core::RunTraining;
using train::Protocol;
using train::TrainerConfig;
using train::TrainResult;

struct Case {
  Protocol protocol;
  std::size_t world;
};

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  std::string name = train::ProtocolName(info.param.protocol);
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_w" + std::to_string(info.param.world);
}

class ProtocolSweep : public ::testing::TestWithParam<Case> {};

TEST_P(ProtocolSweep, LearnsAndReportsConsistently) {
  const Case param = GetParam();
  data::Dataset all = data::MakeGaussianClusters(1200, 8, 4, 0.35, 11);
  auto [train_data, val_data] = all.SplitHoldout(0.2);
  train::ModelFactory factory = [](std::uint64_t seed) {
    return std::make_unique<nn::MlpClassifier>(
        std::vector<std::size_t>{8, 24, 4}, seed);
  };

  TrainerConfig config;
  config.protocol = param.protocol;
  config.world = param.world;
  config.batch_size = 16;
  config.sgd.learning_rate = 0.12;
  config.sgd.momentum = 0.5;
  // Asynchronous/diluted protocols learn less per round; budget accordingly
  // (eager-SGD's fixed-denominator averaging is the weakest per round).
  config.max_rounds = param.protocol == Protocol::kHorovod   ? 150
                      : param.protocol == Protocol::kEagerSgd ? 700
                                                              : 350;
  config.patience = 0;
  config.eval_period_s = 0.01;
  config.seed = 7;

  obs::Session session;
  const TrainResult r = RunTraining(config, factory, train_data, val_data);

  // Fault-free, so no wait may reach its deadline (common::kLosslessDeadline)
  // and no recovery path may run: a lost message is a protocol bug.
  for (const obs::MetricsRegistry::Row& row : session.Metrics().Rows()) {
    if (row.kind != "counter") continue;
    const std::string_view name = row.name;
    if (name.starts_with("fault.") || name == "ps.retries" ||
        name == "ps.call_failures" || name == "collectives.rejected_frames") {
      EXPECT_EQ(row.value, 0.0) << name;
    }
  }

  // Learned something real.
  // Thresholds are deliberately loose: thread-timing nondeterminism moves
  // per-run accuracy by several points; random guessing would be 0.25.
  EXPECT_GT(r.final_accuracy, 0.55) << "protocol did not learn";
  EXPECT_LT(r.final_loss, 1.15);

  // Structural invariants.
  EXPECT_GT(r.rounds, 0u);
  EXPECT_LE(r.rounds, config.max_rounds);
  EXPECT_GT(r.gradients_applied, 0u);
  EXPECT_GT(r.wall_seconds, 0.0);
  ASSERT_EQ(r.breakdown.size(), param.world);
  std::size_t computed = 0;
  for (const auto& b : r.breakdown) {
    EXPECT_GT(b.iterations, 0u);
    EXPECT_GE(b.compute, 0.0);
    computed += b.iterations;
  }
  // Nobody can apply more mini-batches than were computed.
  EXPECT_LE(r.gradients_applied, computed);
  // The returned model matches the reported metrics in dimension.
  auto net = factory(config.model_seed);
  EXPECT_EQ(r.final_params.size(), net->ParamCount());
  // Partial-collective protocols report per-round participation.
  if (param.protocol == Protocol::kRna ||
      param.protocol == Protocol::kEagerSgd ||
      param.protocol == Protocol::kHorovod) {
    ASSERT_EQ(r.round_contributors.size(), r.rounds);
    for (std::size_t c : r.round_contributors) {
      EXPECT_LE(c, param.world);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ProtocolSweep,
    ::testing::Values(Case{Protocol::kHorovod, 2},
                      Case{Protocol::kHorovod, 5},
                      Case{Protocol::kEagerSgd, 2},
                      Case{Protocol::kEagerSgd, 5},
                      Case{Protocol::kAdPsgd, 2},
                      Case{Protocol::kAdPsgd, 5},
                      Case{Protocol::kRna, 2}, Case{Protocol::kRna, 5},
                      Case{Protocol::kRnaHierarchical, 2},
                      Case{Protocol::kRnaHierarchical, 5}),
    CaseName);

// Fuzz the partial allreduce against a scalar reference across random
// contributor masks.
class PartialMaskFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PartialMaskFuzz, MatchesReference) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t world = 2 + rng.UniformInt(5);
  const std::size_t n = 1 + rng.UniformInt(40);
  std::vector<bool> contributes(world);
  std::vector<std::vector<float>> data(world, std::vector<float>(n));
  std::vector<float> expected(n, 0.0f);
  std::size_t count = 0;
  for (std::size_t w = 0; w < world; ++w) {
    contributes[w] = rng.Bernoulli(0.6);
    for (auto& x : data[w]) x = static_cast<float>(rng.Normal(0, 1));
    if (contributes[w]) {
      ++count;
      for (std::size_t i = 0; i < n; ++i) expected[i] += data[w][i];
    }
  }
  if (count > 0) {
    for (auto& e : expected) e /= static_cast<float>(count);
  }

  net::Fabric fabric(world);
  const collectives::Group group = collectives::Group::Full(world);
  std::vector<collectives::PartialResult> results(world);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < world; ++w) {
    threads.emplace_back([&, w] {
      collectives::CollectiveOptions opts;
      opts.tag_base = 1000;
      results[w] = collectives::PartialAllreduceFor(
          {fabric, group, w}, opts, data[w], contributes[w]);
    });
  }
  for (auto& t : threads) t.join();

  for (std::size_t w = 0; w < world; ++w) {
    EXPECT_EQ(results[w].contributors, count);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(data[w][i], expected[i], 1e-4f)
          << "world=" << world << " w=" << w << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartialMaskFuzz, ::testing::Range(1, 25));

}  // namespace
}  // namespace rna
