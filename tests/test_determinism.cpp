// Seed-determinism property: under TrainerConfig::lockstep (with early
// stopping disabled), every protocol's TrainResult is a pure function of the
// config and seeds — run the same config twice and the final parameters
// match byte for byte. This is the precondition the chaos suite's
// replay-from-logged-seed guarantee rests on.
//
// What lockstep buys per protocol:
//   * horovod       — BSP is already deterministic; lockstep is a no-op
//   * rna / eager   — controller paces compute with one kStep token per
//                     round, so membership and staleness are schedule-free
//   * rna-h         — plus nominal (delay-model-sampled) calibration instead
//                     of wall-clock measurement
//   * ad-psgd       — RoundRobinGate serializes iterations into rank order
// Wall-clock-derived fields (wall_seconds, curve, breakdown) are exempt;
// everything the optimizer touched must match exactly.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "rna/core/rna.hpp"
#include "rna/data/generators.hpp"
#include "rna/nn/network.hpp"
#include "rna/sim/workload.hpp"
#include "rna/train/config.hpp"
#include "rna/train/metrics.hpp"

namespace rna {
namespace {

using train::Protocol;
using train::ProtocolName;
using train::TrainerConfig;
using train::TrainResult;

struct Scenario {
  data::Dataset train;
  data::Dataset val;
  train::ModelFactory factory;
};

Scenario SmallScenario(std::uint64_t seed = 11) {
  Scenario s;
  data::Dataset all = data::MakeGaussianClusters(300, 6, 3, 0.3, seed);
  std::tie(s.train, s.val) = all.SplitHoldout(0.2);
  s.factory = [](std::uint64_t model_seed) {
    return std::make_unique<nn::MlpClassifier>(
        std::vector<std::size_t>{6, 12, 3}, model_seed);
  };
  return s;
}

TrainerConfig LockstepConfig(Protocol protocol) {
  TrainerConfig c;
  c.protocol = protocol;
  c.world = 3;
  c.max_rounds = 6;
  c.batch_size = 8;
  c.lockstep = true;
  // Disable every early-stop path: stopping decisions depend on wall-clock
  // eval timing, which is exactly what lockstep cannot control.
  c.target_loss = -1.0;
  c.patience = 1000000;
  c.calibration_iters = 2;
  c.ps_sync_every = 2;
  return c;
}

void ExpectIdenticalRunsWith(const TrainerConfig& config) {
  Scenario s = SmallScenario();
  const TrainResult a = core::RunTraining(config, s.factory, s.train, s.val);
  const TrainResult b = core::RunTraining(config, s.factory, s.train, s.val);

  ASSERT_EQ(a.final_params.size(), b.final_params.size());
  for (std::size_t i = 0; i < a.final_params.size(); ++i) {
    // Bitwise: EXPECT_EQ on floats, not near — the whole point.
    ASSERT_EQ(a.final_params[i], b.final_params[i]) << "param " << i;
  }
  EXPECT_EQ(a.final_loss, b.final_loss);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.gradients_applied, b.gradients_applied);
  EXPECT_EQ(a.round_contributors, b.round_contributors);
  EXPECT_EQ(a.live_workers, b.live_workers);
}

void ExpectIdenticalRuns(Protocol protocol) {
  SCOPED_TRACE(ProtocolName(protocol));
  ExpectIdenticalRunsWith(LockstepConfig(protocol));
}

TEST(LockstepDeterminism, Horovod) { ExpectIdenticalRuns(Protocol::kHorovod); }

TEST(LockstepDeterminism, EagerSgd) {
  ExpectIdenticalRuns(Protocol::kEagerSgd);
}

TEST(LockstepDeterminism, AdPsgd) { ExpectIdenticalRuns(Protocol::kAdPsgd); }

TEST(LockstepDeterminism, Rna) { ExpectIdenticalRuns(Protocol::kRna); }

TEST(LockstepDeterminism, RnaHierarchical) {
  ExpectIdenticalRuns(Protocol::kRnaHierarchical);
}

// Every reduction schedule × wire compression combo must preserve the
// lockstep-determinism property: the collective policy changes the wire
// format and the hop graph, never the schedule-freedom of the run.
using PolicyParam =
    std::tuple<collectives::Schedule, collectives::Compression>;

class PolicyDeterminism : public ::testing::TestWithParam<PolicyParam> {};

TEST_P(PolicyDeterminism, IdenticalRunsUnderRna) {
  const auto [schedule, compression] = GetParam();
  TrainerConfig config = LockstepConfig(Protocol::kRna);
  config.schedule = schedule;
  config.compression = compression;
  config.topk_fraction = 0.25;
  ExpectIdenticalRunsWith(config);
}

std::string PolicyName(const ::testing::TestParamInfo<PolicyParam>& info) {
  const auto [schedule, compression] = info.param;
  return std::string(collectives::ScheduleName(schedule)) + "_" +
         collectives::CompressionName(compression);
}

INSTANTIATE_TEST_SUITE_P(
    ScheduleByCompression, PolicyDeterminism,
    ::testing::Combine(
        ::testing::Values(collectives::Schedule::kRing,
                          collectives::Schedule::kTree,
                          collectives::Schedule::kStragglar),
        ::testing::Values(collectives::Compression::kNone,
                          collectives::Compression::kFp16,
                          collectives::Compression::kInt8,
                          collectives::Compression::kTopK)),
    PolicyName);

TEST(LockstepDeterminism, DifferentSeedsActuallyDiverge) {
  // Sanity check that the property above is not vacuous (e.g. a runner
  // ignoring its inputs would pass every identity test).
  Scenario s = SmallScenario();
  TrainerConfig config = LockstepConfig(Protocol::kRna);
  const TrainResult a = core::RunTraining(config, s.factory, s.train, s.val);
  config.seed = 4242;
  config.model_seed = 4243;
  const TrainResult b = core::RunTraining(config, s.factory, s.train, s.val);
  ASSERT_EQ(a.final_params.size(), b.final_params.size());
  bool any_diff = false;
  for (std::size_t i = 0; i < a.final_params.size(); ++i) {
    any_diff |= a.final_params[i] != b.final_params[i];
  }
  EXPECT_TRUE(any_diff);
}


// ---- golden pins -----------------------------------------------------------
// The identity tests above compare two runs of the *same* build. These pins
// compare against values recorded once, so a refactor of an engine cannot
// change what it computes without failing here. Recorded with GCC 12.2 /
// glibc 2.36 (x86-64, RelWithDebInfo); the params hash covers the bytes of
// final_params. A different toolchain may round differently: on a mismatch
// the test prints every observed value as a ready-to-paste pin.
struct Pin {
  std::uint64_t params_hash;
  std::size_t rounds;
  std::size_t gradients_applied;
  std::vector<std::size_t> round_contributors;
  std::size_t live_workers;
};

// FNV-1a 64 over raw bytes, as perfbench hashes final parameters.
std::uint64_t HashBytes(const void* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

Pin Observe(const TrainResult& r) {
  return {HashBytes(r.final_params.data(),
                    r.final_params.size() * sizeof(float)),
          r.rounds,
          r.gradients_applied,
          r.round_contributors,
          r.live_workers};
}

std::string Describe(const Pin& p) {
  char head[128];
  std::snprintf(head, sizeof(head), "{0x%016llxull, %zu, %zu, {",
                static_cast<unsigned long long>(p.params_hash), p.rounds,
                p.gradients_applied);
  std::string out = head;
  for (std::size_t i = 0; i < p.round_contributors.size(); ++i) {
    out += (i ? ", " : "") + std::to_string(p.round_contributors[i]);
  }
  return out + "}, " + std::to_string(p.live_workers) + "}";
}

void ExpectPinned(const TrainerConfig& config, std::uint64_t scenario_seed,
                  const Pin& expected) {
  Scenario s = SmallScenario(scenario_seed);
  const Pin got =
      Observe(core::RunTraining(config, s.factory, s.train, s.val));
  const bool same = got.params_hash == expected.params_hash &&
                    got.rounds == expected.rounds &&
                    got.gradients_applied == expected.gradients_applied &&
                    got.round_contributors == expected.round_contributors &&
                    got.live_workers == expected.live_workers;
  EXPECT_TRUE(same) << "pinned:   " << Describe(expected)
                    << "\nobserved: " << Describe(got);
}

TrainerConfig CrashReplayConfig() {
  // Chaos.DeterministicReplayOfACrashRun at RNA_CHAOS_SEED=0: lockstep rna,
  // rank 3 fail-stops on its round-2 Go and the survivors time out.
  TrainerConfig c;
  c.protocol = Protocol::kRna;
  c.world = 4;
  c.max_rounds = 8;
  c.batch_size = 8;
  c.lockstep = true;
  c.target_loss = -1.0;
  c.patience = 1000000;
  c.fault.retry_budget = 5;
  c.fault.retry_timeout_s = 0.02;
  c.fault.collective_timeout_s = 0.25;
  c.fault.probe_timeout_s = 0.1;
  c.fault.dead_after_misses = 2;
  c.seed = 42;
  c.model_seed = 7;
  train::WorkerFaultSchedule crash;
  crash.rank = 3;
  crash.crash_in_round = 2;
  c.fault.workers.push_back(crash);
  return c;
}

TEST(GoldenPins, LockstepRna) {
  ExpectPinned(LockstepConfig(Protocol::kRna), 11,
               {0xb92691e8fbd7e7fdull, 6, 18, {3, 3, 3, 3, 3, 3}, 3});
}

// Identical to flat RNA's pin: in lockstep every worker contributes every
// round, so stale reuse never fires and both re-weightings are 1.
TEST(GoldenPins, LockstepEagerSgd) {
  ExpectPinned(LockstepConfig(Protocol::kEagerSgd), 11,
               {0xb92691e8fbd7e7fdull, 6, 18, {3, 3, 3, 3, 3, 3}, 3});
}

TEST(GoldenPins, LockstepRnaHierarchical) {
  ExpectPinned(LockstepConfig(Protocol::kRnaHierarchical), 11,
               {0x226d0c818d2c113eull, 6, 18, {3, 3, 3, 3, 3, 3}, 3});
}

// Two speed tiers give two groups of two, so the two leaders' PS syncs run
// in the gate's (sync round, group) order.
TEST(GoldenPins, LockstepRnaHierarchicalTwoGroups) {
  TrainerConfig c = LockstepConfig(Protocol::kRnaHierarchical);
  c.world = 4;
  c.max_rounds = 8;
  c.delay_model = std::make_shared<sim::DeterministicSkewModel>(
      0.0005, std::vector<common::Seconds>{0.0, 0.0, 0.002, 0.002});
  ExpectPinned(
      c, 11,
      {0x7156140eda9d0ac8ull, 8, 32, {2, 2, 2, 2, 2, 2, 2, 2}, 4});
}

// Identical to flat RNA's pin too: with every worker in every round, BSP's
// average and RNA's re-weighted partial sum are the same arithmetic.
TEST(GoldenPins, LockstepHorovod) {
  ExpectPinned(LockstepConfig(Protocol::kHorovod), 11,
               {0xb92691e8fbd7e7fdull, 6, 18, {3, 3, 3, 3, 3, 3}, 3});
}

// The gate serializes the gossip into rank order; AD-PSGD records no
// per-round contributors.
TEST(GoldenPins, LockstepAdPsgd) {
  ExpectPinned(LockstepConfig(Protocol::kAdPsgd), 11,
               {0x6ca037e945ada66cull, 6, 18, {}, 3});
}

TEST(GoldenPins, RnaStragglarInt8) {
  TrainerConfig c = LockstepConfig(Protocol::kRna);
  c.schedule = collectives::Schedule::kStragglar;
  c.compression = collectives::Compression::kInt8;
  ExpectPinned(c, 11,
               {0x47d62e546a8cc21full, 6, 18, {3, 3, 3, 3, 3, 3}, 3});
}

TEST(GoldenPins, RnaCrashReplay) {
  ExpectPinned(
      CrashReplayConfig(), 16,
      {0xa4d7252e197d4770ull, 8, 23, {4, 4, 0, 3, 3, 3, 3, 3}, 3});
}

// Chaos.KillWholeHierarchicalGroup at RNA_CHAOS_SEED=0: two speed groups,
// and the slow one ({2, 3}) fail-stops on its round-3 Go.
TEST(GoldenPins, RnaHierarchicalWholeGroupCrash) {
  TrainerConfig c = CrashReplayConfig();
  c.protocol = Protocol::kRnaHierarchical;
  c.calibration_iters = 2;
  c.ps_sync_every = 2;
  c.delay_model = std::make_shared<sim::DeterministicSkewModel>(
      0.0005, std::vector<common::Seconds>{0.0, 0.0, 0.02, 0.02});
  c.fault.workers.clear();
  for (const std::size_t rank : {std::size_t{2}, std::size_t{3}}) {
    train::WorkerFaultSchedule crash;
    crash.rank = rank;
    crash.crash_in_round = 3;
    c.fault.workers.push_back(crash);
  }
  ExpectPinned(
      c, 15,
      {0xcbd7edc2c8b7e244ull, 8, 22, {2, 2, 2, 2, 2, 2, 2, 2}, 2});
}

}  // namespace
}  // namespace rna
