// Tests for the redesigned training API surface: TrainerConfig::Validate,
// ParseProtocol/ProtocolName round-tripping, the RunTraining front door's
// rejection behaviour, the thin RunRna/RunHierarchicalRna wrappers, and the
// TrainResult summary helpers.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "rna/core/rna.hpp"
#include "rna/data/generators.hpp"
#include "rna/train/config.hpp"
#include "rna/train/metrics.hpp"

namespace rna {
namespace {

using train::ParseProtocol;
using train::Protocol;
using train::ProtocolName;
using train::TrainerConfig;
using train::TrainResult;

TrainerConfig ValidConfig(Protocol protocol = Protocol::kRna) {
  TrainerConfig c;
  c.protocol = protocol;
  c.world = 3;
  c.max_rounds = 10;
  return c;
}

TEST(Validate, AcceptsTheDefaultishConfig) {
  EXPECT_EQ(ValidConfig().Validate(), "");
  EXPECT_EQ(ValidConfig(Protocol::kHorovod).Validate(), "");
  EXPECT_EQ(ValidConfig(Protocol::kRnaHierarchical).Validate(), "");
}

TEST(Validate, RejectsEachBrokenField) {
  struct Case {
    const char* expect_substr;
    void (*mutate)(TrainerConfig&);
  };
  const Case cases[] = {
      {"world", [](TrainerConfig& c) { c.world = 0; }},
      {"batch_size", [](TrainerConfig& c) { c.batch_size = 0; }},
      {"max_rounds", [](TrainerConfig& c) { c.max_rounds = 0; }},
      {"probe_choices", [](TrainerConfig& c) { c.probe_choices = 0; }},
      {"probe_choices", [](TrainerConfig& c) { c.probe_choices = 9; }},
      {"staleness_bound", [](TrainerConfig& c) { c.staleness_bound = 0; }},
      {"eval_period_s", [](TrainerConfig& c) { c.eval_period_s = 0.0; }},
      {"eval_samples", [](TrainerConfig& c) { c.eval_samples = 0; }},
      {"lr_decay_factor", [](TrainerConfig& c) { c.lr_decay_factor = -1.0; }},
      {"delay_scale", [](TrainerConfig& c) { c.delay_scale = -0.5; }},
      {"sleep_per_step", [](TrainerConfig& c) { c.sleep_per_step = -1e-6; }},
      {"calibration_iters",
       [](TrainerConfig& c) {
         c.protocol = train::Protocol::kRnaHierarchical;
         c.calibration_iters = 0;
       }},
      {"at least two workers",
       [](TrainerConfig& c) {
         c.protocol = train::Protocol::kAdPsgd;
         c.world = 1;
         c.probe_choices = 1;
       }},
  };
  for (const Case& test_case : cases) {
    TrainerConfig c = ValidConfig();
    test_case.mutate(c);
    const std::string why = c.Validate();
    EXPECT_FALSE(why.empty()) << "expected rejection for "
                              << test_case.expect_substr;
    EXPECT_NE(why.find(test_case.expect_substr), std::string::npos) << why;
  }
}

TEST(Validate, AcceptsABenignFaultConfig) {
  TrainerConfig c = ValidConfig();
  c.fault.drop_prob = 0.1;
  c.fault.ps_drop_prob = 0.1;
  train::WorkerFaultSchedule s;
  s.rank = 1;
  s.crash_in_round = 5;
  c.fault.workers.push_back(s);
  EXPECT_EQ(c.Validate(), "");
}

TEST(Validate, RejectsEachBrokenFaultField) {
  struct Case {
    const char* expect_substr;
    void (*mutate)(TrainerConfig&);
  };
  const Case cases[] = {
      {"drop_prob", [](TrainerConfig& c) { c.fault.drop_prob = -0.1; }},
      {"drop_prob", [](TrainerConfig& c) { c.fault.drop_prob = 1.5; }},
      {"dup_prob", [](TrainerConfig& c) { c.fault.dup_prob = -1.0; }},
      {"delay_prob", [](TrainerConfig& c) { c.fault.delay_prob = 2.0; }},
      {"ps_drop_prob", [](TrainerConfig& c) { c.fault.ps_drop_prob = -0.2; }},
      {"delay_s", [](TrainerConfig& c) { c.fault.delay_s = -0.5; }},
      {"retry_budget",
       [](TrainerConfig& c) {
         c.fault.drop_prob = 0.1;  // make faults Enabled()
         c.fault.retry_budget = 0;
       }},
      {"timeouts",
       [](TrainerConfig& c) {
         c.fault.drop_prob = 0.1;
         c.fault.collective_timeout_s = 0.0;
       }},
      {"dead_after_misses",
       [](TrainerConfig& c) {
         c.fault.drop_prob = 0.1;
         c.fault.dead_after_misses = 0;
       }},
      {"outside the world",
       [](TrainerConfig& c) {
         train::WorkerFaultSchedule s;
         s.rank = 99;
         c.fault.workers.push_back(s);
       }},
      {"beyond max_rounds",
       [](TrainerConfig& c) {
         train::WorkerFaultSchedule s;
         s.crash_in_round = c.max_rounds;  // would never fire
         c.fault.workers.push_back(s);
       }},
      {"hang_for_s",
       [](TrainerConfig& c) {
         train::WorkerFaultSchedule s;
         s.hang_for_s = -1.0;
         c.fault.workers.push_back(s);
       }},
      {"flaky_prob",
       [](TrainerConfig& c) {
         train::WorkerFaultSchedule s;
         s.flaky_prob = 1.5;
         c.fault.workers.push_back(s);
       }},
      {"lossy fabric",
       [](TrainerConfig& c) {
         c.protocol = Protocol::kHorovod;
         c.fault.drop_prob = 0.1;  // a drop would end the BSP run
       }},
      {"lossy fabric",
       [](TrainerConfig& c) {
         c.protocol = Protocol::kHorovod;
         c.fault.ps_drop_prob = 0.1;
       }},
      {"cannot survive a crash",
       [](TrainerConfig& c) {
         c.protocol = Protocol::kHorovod;
         train::WorkerFaultSchedule s;
         s.crash_at_iteration = 2;
         c.fault.workers.push_back(s);
       }},
  };
  for (const Case& test_case : cases) {
    TrainerConfig c = ValidConfig();
    test_case.mutate(c);
    const std::string why = c.Validate();
    EXPECT_FALSE(why.empty()) << "expected rejection for "
                              << test_case.expect_substr;
    EXPECT_NE(why.find(test_case.expect_substr), std::string::npos) << why;
  }
}

TEST(Validate, DelayFaultsAreLegalEvenForLosslessProtocols) {
  // Horovod rejects drop faults (a drop would end its BSP run at the hop
  // deadline) but tolerates pure slowness: delay and hang/flaky faults
  // pass.
  TrainerConfig c = ValidConfig(Protocol::kHorovod);
  c.fault.delay_prob = 0.3;
  c.fault.delay_s = 0.01;
  train::WorkerFaultSchedule s;
  s.rank = 0;
  s.hang_at_iteration = 1;
  s.hang_for_s = 0.01;
  c.fault.workers.push_back(s);
  EXPECT_EQ(c.Validate(), "");
}

TEST(Validate, ZeroDecayFactorFreezesTrainingAndIsLegal) {
  TrainerConfig c = ValidConfig();
  c.lr_decay_factor = 0.0;
  c.lr_decay_rounds = {1};
  EXPECT_EQ(c.Validate(), "");
}

TEST(ParseProtocolTest, RoundTripsEveryProtocolName) {
  const Protocol all[] = {
      Protocol::kHorovod, Protocol::kEagerSgd,        Protocol::kAdPsgd,
      Protocol::kRna,     Protocol::kRnaHierarchical,
  };
  for (Protocol p : all) {
    const auto parsed = ParseProtocol(ProtocolName(p));
    ASSERT_TRUE(parsed.has_value()) << ProtocolName(p);
    EXPECT_EQ(*parsed, p);
  }
}

TEST(ParseProtocolTest, AcceptsAliasesAndRejectsJunk) {
  EXPECT_EQ(ParseProtocol("eager"), Protocol::kEagerSgd);
  EXPECT_EQ(ParseProtocol("adpsgd"), Protocol::kAdPsgd);
  EXPECT_FALSE(ParseProtocol("").has_value());
  EXPECT_FALSE(ParseProtocol("RNA").has_value());  // names are exact
  EXPECT_FALSE(ParseProtocol("allreduce").has_value());
  EXPECT_FALSE(ParseProtocol("rna ").has_value());
  // SGP and the asynchronous PS were removed; their names no longer parse.
  EXPECT_FALSE(ParseProtocol("sgp").has_value());
  EXPECT_FALSE(ParseProtocol("async-ps").has_value());
}

TEST(TrainResultHelpers, EmptyResultYieldsZeroMeans) {
  TrainResult r;
  EXPECT_DOUBLE_EQ(r.MeanContributors(), 0.0);
  EXPECT_DOUBLE_EQ(r.MeanRoundTime(), 0.0);
}

TEST(TrainResultHelpers, MeansAverageOverRounds) {
  TrainResult r;
  r.rounds = 4;
  r.wall_seconds = 2.0;
  r.round_contributors = {3, 1, 2, 2};
  EXPECT_DOUBLE_EQ(r.MeanContributors(), 2.0);
  EXPECT_DOUBLE_EQ(r.MeanRoundTime(), 0.5);
}

TEST(TrainResultHelpers, ZeroRoundsWithWallTimeStaysFinite) {
  TrainResult r;
  r.wall_seconds = 1.5;
  EXPECT_DOUBLE_EQ(r.MeanRoundTime(), 0.0);  // no division by zero
}

struct Scenario {
  data::Dataset train;
  data::Dataset val;
  train::ModelFactory factory;
};

Scenario SmallScenario(std::uint64_t seed = 5) {
  Scenario s;
  data::Dataset all = data::MakeGaussianClusters(400, 8, 4, 0.35, seed);
  std::tie(s.train, s.val) = all.SplitHoldout(0.2);
  s.factory = [](std::uint64_t model_seed) {
    return std::make_unique<nn::MlpClassifier>(
        std::vector<std::size_t>{8, 16, 4}, model_seed);
  };
  return s;
}

TEST(RunTraining, ThrowsInvalidArgumentWithTheValidateMessage) {
  Scenario s = SmallScenario();
  TrainerConfig c = ValidConfig();
  c.world = 0;
  try {
    (void)core::RunTraining(c, s.factory, s.train, s.val);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("world"), std::string::npos);
  }
}

TEST(RunTraining, WrappersPinTheProtocolField) {
  Scenario s = SmallScenario();
  TrainerConfig c = ValidConfig();
  c.max_rounds = 6;
  // Deliberately mislabeled: the wrapper must override the protocol field.
  c.protocol = Protocol::kHorovod;
  const TrainResult r = core::RunRna(c, s.factory, s.train, s.val);
  EXPECT_EQ(r.rounds, 6u);
  // RNA applies partial rounds: contributors per round never exceed world.
  ASSERT_EQ(r.round_contributors.size(), 6u);
  for (std::size_t count : r.round_contributors) {
    EXPECT_LE(count, c.world);
  }
}

}  // namespace
}  // namespace rna
