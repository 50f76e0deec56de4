// Chaos scenarios: end-to-end training runs under injected crashes, drops,
// and hangs, asserting the protocol layer degrades the way the paper
// prescribes (absent workers contribute null gradients, the partial
// collective re-weights by the surviving contributor count, training
// terminates and keeps learning) instead of deadlocking or dying.
//
// Several scenarios are regression locks: the comment above each names the
// exact failure mode the pre-fault-injection code exhibited when the same
// fault was injected by hand.

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "chaos_util.hpp"
#include "rna/collectives/allreduce.hpp"
#include "rna/core/rna.hpp"
#include "rna/net/fabric.hpp"
#include "rna/net/fault.hpp"
#include "rna/obs/session.hpp"
#include "rna/sim/workload.hpp"
#include "rna/train/config.hpp"
#include "rna/train/metrics.hpp"

namespace rna::chaos {
namespace {

using train::Protocol;
using train::TrainerConfig;
using train::TrainResult;
using train::WorkerFaultSchedule;

// Regression lock — crash one worker mid-round. Pre-PR, the ring collective
// used untimed Mailbox::Get: a member that received the Go and died before
// sending its first chunk left both ring neighbors blocked forever inside
// Recv (deadlock; the run never terminated). The timed ring
// (RingPartialAllreduce hop deadline) plus the controller's kGoodbye
// handling turn that into one aborted round followed by re-formed
// membership.
TEST(Chaos, CrashWorkerMidRound) {
  constexpr std::size_t kWorld = 4;
  constexpr std::size_t kRounds = 8;
  constexpr std::size_t kCrashRound = 3;
  Scenario s = SmallScenario(11);
  TrainerConfig c = ChaosConfig(Protocol::kRna, kWorld, kRounds);
  c.lockstep = true;  // makes the contributor trace oracle-exact
  WorkerFaultSchedule w;
  w.rank = 2;
  w.crash_in_round = kCrashRound;
  c.fault.workers.push_back(w);

  const TrainResult r = core::RunTraining(c, s.factory, s.train, s.val);

  EXPECT_EQ(r.rounds, kRounds);
  EXPECT_EQ(r.live_workers, kWorld - 1);
  // Oracle: full membership before the crash; the crash round itself aborts
  // (the ring is broken mid-collective, survivors time out and skip the
  // step); every later round runs the re-formed (N-1)-member ring.
  ASSERT_EQ(r.round_contributors.size(), kRounds);
  for (std::size_t round = 0; round < kRounds; ++round) {
    const std::size_t expect = round < kCrashRound ? kWorld
                               : round == kCrashRound ? 0
                                                      : kWorld - 1;
    EXPECT_EQ(r.round_contributors[round], expect) << "round " << round;
  }
  EXPECT_LT(r.final_loss, kChanceLoss);
  for (float p : r.final_params) ASSERT_TRUE(std::isfinite(p));
}

// A worker that dies between collectives (compute-path fail-stop) says
// kGoodbye before the next round's membership forms, so no round aborts:
// the contributor count steps from N straight to N-1 and the survivors'
// re-weighted (W = 1/Σw, LR ∝ m/N) updates keep converging.
TEST(Chaos, CrashBetweenRoundsContributorOracle) {
  constexpr std::size_t kWorld = 4;
  constexpr std::size_t kRounds = 8;
  constexpr std::size_t kCrashIter = 3;
  Scenario s = SmallScenario(12);
  TrainerConfig c = ChaosConfig(Protocol::kRna, kWorld, kRounds);
  c.lockstep = true;  // one compute token per round: iteration k <=> round k
  WorkerFaultSchedule w;
  w.rank = 1;
  w.crash_at_iteration = kCrashIter;
  c.fault.workers.push_back(w);

  const TrainResult r = core::RunTraining(c, s.factory, s.train, s.val);

  EXPECT_EQ(r.rounds, kRounds);
  EXPECT_EQ(r.live_workers, kWorld - 1);
  ASSERT_EQ(r.round_contributors.size(), kRounds);
  for (std::size_t round = 0; round < kRounds; ++round) {
    const std::size_t expect = round < kCrashIter ? kWorld : kWorld - 1;
    EXPECT_EQ(r.round_contributors[round], expect) << "round " << round;
  }
  EXPECT_LT(r.final_loss, kChanceLoss);
}

// Regression lock — drop 10% of parameter-server traffic. Pre-PR, PsClient
// sent the request once and blocked in an untimed Recv for the reply: the
// first dropped message (either direction) hung that worker forever. The
// at-least-once retry loop (exponential backoff, bounded budget) rides
// through a 10% loss rate essentially always. Two speed tiers give rna-h
// two groups, so every group leader's sync crosses the PS.
// Budget 1 is a regression lock: the PS client once read a budget of 1 as
// "wait until the fabric shuts down", so one dropped PS message stalled a
// group leader and the run never returned. It now makes one timed attempt,
// and a lost message fails the call (a skipped sync) instead.
TEST(Chaos, DropTenPercentOfPsTraffic) {
  constexpr std::size_t kWorld = 4;
  for (const std::size_t budget : {std::size_t{5}, std::size_t{1}}) {
    SCOPED_TRACE(budget);
    Scenario s = SmallScenario(13);
    TrainerConfig c = ChaosConfig(Protocol::kRnaHierarchical, kWorld, 12);
    c.lockstep = true;
    c.calibration_iters = 2;
    c.delay_model = std::make_shared<sim::DeterministicSkewModel>(
        0.0005, std::vector<common::Seconds>{0.0, 0.0, 0.002, 0.002});
    c.fault.ps_drop_prob = 0.10;
    c.fault.retry_budget = budget;

    obs::Session session;
    const TrainResult r = core::RunTraining(c, s.factory, s.train, s.val);

    EXPECT_EQ(session.Metrics().GaugeValue("hier.groups"), 2.0);
    // A drop shows up as a retry, or with no retries left as a failed call.
    EXPECT_GT(session.Metrics().CounterValue(budget > 1 ? "ps.retries"
                                                        : "ps.call_failures"),
              0)
        << "no drop hit the PS";
    EXPECT_EQ(r.live_workers, kWorld);
    EXPECT_GT(r.gradients_applied, 0u);
    EXPECT_LT(r.final_loss, kChanceLoss);
    for (float p : r.final_params) ASSERT_TRUE(std::isfinite(p));
  }
}

// Hang the worker the controller just probed (the would-be initiator of the
// round). A hang is slowness, not death: the paper's rule is that a
// probed-and-silent worker is treated as absent for *this* round (its
// contribution becomes the null gradient) — it must NOT be declared dead,
// and once the hang clears it rejoins at full strength.
TEST(Chaos, HangElectedInitiatorIsAbsentNotDead) {
  constexpr std::size_t kWorld = 4;
  constexpr std::size_t kRounds = 8;
  Scenario s = SmallScenario(14);
  TrainerConfig c = ChaosConfig(Protocol::kRna, kWorld, kRounds);
  // Free-running: the hang must interact with the real probe/election
  // machinery, not the lockstep pacer.
  WorkerFaultSchedule w;
  w.rank = 0;  // the first rank probed in round 0's election
  w.hang_at_iteration = 1;
  w.hang_for_s = 0.5;  // >> probe_timeout_s: forces re-election paths
  c.fault.workers.push_back(w);

  const TrainResult r = core::RunTraining(c, s.factory, s.train, s.val);

  EXPECT_EQ(r.rounds, kRounds);
  // The hung worker was slow, never silent at round end: still alive.
  EXPECT_EQ(r.live_workers, kWorld);
  EXPECT_LT(r.final_loss, kChanceLoss);
}

// Kill every member of one hierarchical speed group mid-run. The surviving
// group's RNA ring and its async PS averaging must keep going; the dead
// group's controller retires from the PS rotation instead of wedging it.
TEST(Chaos, KillWholeHierarchicalGroup) {
  constexpr std::size_t kWorld = 4;
  constexpr std::size_t kRounds = 8;
  constexpr std::size_t kCrashRound = 3;
  Scenario s = SmallScenario(15);
  TrainerConfig c = ChaosConfig(Protocol::kRnaHierarchical, kWorld, kRounds);
  c.lockstep = true;  // grouping comes from the delay model, not wall clock
  c.calibration_iters = 2;
  c.ps_sync_every = 2;
  // Two clean speed tiers -> two groups: {0, 1} fast, {2, 3} slow.
  c.delay_model = std::make_shared<sim::DeterministicSkewModel>(
      0.0005, std::vector<common::Seconds>{0.0, 0.0, 0.02, 0.02});
  c.delay_scale = 1.0;
  for (std::size_t rank : {std::size_t{2}, std::size_t{3}}) {
    WorkerFaultSchedule w;
    w.rank = rank;
    w.crash_in_round = kCrashRound;
    c.fault.workers.push_back(w);
  }

  const TrainResult r = core::RunTraining(c, s.factory, s.train, s.val);

  EXPECT_EQ(r.live_workers, kWorld - 2);
  // The recorded trace follows rank 0's (surviving) group: its two members
  // never miss a round.
  ASSERT_EQ(r.round_contributors.size(), r.rounds);
  for (std::size_t round = 0; round < r.rounds; ++round) {
    EXPECT_EQ(r.round_contributors[round], 2u) << "round " << round;
  }
  EXPECT_GE(r.rounds, kRounds);
  EXPECT_LT(r.final_loss, kChanceLoss);
  for (float p : r.final_params) ASSERT_TRUE(std::isfinite(p));
}

// Free-running, a speed group whose members all fail-stop on the compute
// side must not end the surviving group's session. The dead members' comm
// threads still read their controller's exit plan, and that exit used to
// raise the run-wide stop: the survivors then quit with rounds to go.
TEST(Chaos, WholeGroupCrashLeavesTheSurvivorsTheirRounds) {
  constexpr std::size_t kWorld = 4;
  constexpr std::size_t kRounds = 200;
  Scenario s = SmallScenario(20);
  TrainerConfig c = ChaosConfig(Protocol::kRnaHierarchical, kWorld, kRounds);
  c.calibration_iters = 2;
  c.ps_sync_every = 2;
  // Two clean speed tiers -> two groups: {0, 1} fast, {2, 3} slow.
  c.delay_model = std::make_shared<sim::DeterministicSkewModel>(
      0.0005, std::vector<common::Seconds>{0.0, 0.0, 0.02, 0.02});
  c.delay_scale = 1.0;
  for (const std::size_t rank : {std::size_t{2}, std::size_t{3}}) {
    WorkerFaultSchedule w;
    w.rank = rank;
    w.crash_at_iteration = 1;
    c.fault.workers.push_back(w);
  }

  const TrainResult r = core::RunTraining(c, s.factory, s.train, s.val);

  EXPECT_EQ(r.live_workers, kWorld - 2);
  // Rank 0's group records the rounds; it ran its whole schedule.
  EXPECT_EQ(r.rounds, kRounds);
  for (float p : r.final_params) ASSERT_TRUE(std::isfinite(p));
}

// The replay guarantee the suite is named for: a chaos run (lockstep +
// scripted crash) is byte-for-byte reproducible from its seed — same final
// parameters, same contributor trace, same death toll.
TEST(Chaos, DeterministicReplayOfACrashRun) {
  constexpr std::size_t kWorld = 4;
  Scenario s = SmallScenario(16);
  TrainerConfig c = ChaosConfig(Protocol::kRna, kWorld, 8);
  c.lockstep = true;
  WorkerFaultSchedule w;
  w.rank = 3;
  w.crash_in_round = 2;
  c.fault.workers.push_back(w);

  const TrainResult a = core::RunTraining(c, s.factory, s.train, s.val);
  const TrainResult b = core::RunTraining(c, s.factory, s.train, s.val);

  ASSERT_EQ(a.final_params.size(), b.final_params.size());
  for (std::size_t i = 0; i < a.final_params.size(); ++i) {
    ASSERT_EQ(a.final_params[i], b.final_params[i]) << "param " << i;
  }
  EXPECT_EQ(a.final_loss, b.final_loss);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.round_contributors, b.round_contributors);
  EXPECT_EQ(a.live_workers, b.live_workers);
  EXPECT_EQ(a.gradients_applied, b.gradients_applied);
}

// Probabilistic storm: 10% of *all* fabric traffic dropped (controller
// RPCs, ring chunks, everything). Individual rounds may abort — that is the
// designed degradation — but the run must terminate with every worker
// alive-or-accounted-for and finite parameters. This is the scenario that
// exercises every timeout path at once.
TEST(Chaos, FabricDropStormTerminates) {
  constexpr std::size_t kWorld = 4;
  constexpr std::size_t kRounds = 6;
  Scenario s = SmallScenario(17);
  TrainerConfig c = ChaosConfig(Protocol::kRna, kWorld, kRounds);
  c.fault.drop_prob = 0.10;
  c.fault.collective_timeout_s = 0.1;  // storms abort fast, not accurately

  const TrainResult r = core::RunTraining(c, s.factory, s.train, s.val);

  EXPECT_GT(r.rounds, 0u);
  ASSERT_EQ(r.round_contributors.size(), r.rounds);
  for (std::size_t count : r.round_contributors) EXPECT_LE(count, kWorld);
  for (float p : r.final_params) ASSERT_TRUE(std::isfinite(p));
}

// Gossip under fire: AD-PSGD with one peer crashing mid-run. Survivors must
// discover the death (timeout -> local suspicion), degrade to local SGD for
// iterations whose drawn peer is dead, and the final consensus average must
// span survivors only.
TEST(Chaos, AdPsgdSurvivesPeerCrash) {
  constexpr std::size_t kWorld = 4;
  Scenario s = SmallScenario(18);
  TrainerConfig c = ChaosConfig(Protocol::kAdPsgd, kWorld, 12);
  c.lockstep = true;
  WorkerFaultSchedule w;
  w.rank = 2;
  w.crash_at_iteration = 4;
  c.fault.workers.push_back(w);

  const TrainResult r = core::RunTraining(c, s.factory, s.train, s.val);

  EXPECT_EQ(r.live_workers, kWorld - 1);
  EXPECT_GT(r.gradients_applied, 0u);
  EXPECT_LT(r.final_loss, kChanceLoss);
  for (float p : r.final_params) ASSERT_TRUE(std::isfinite(p));
}

// Every rank fail-stops at its fourth batch, a schedule Validate() accepts.
// Each runner must still return a model: with no live rank left, the result
// comes from every rank. AD-PSGD used to abort on a survivors check here.
class EveryRankCrashes
    : public ::testing::TestWithParam<std::tuple<Protocol, bool>> {};

TEST_P(EveryRankCrashes, StillReturnsAFiniteModel) {
  const auto [protocol, lockstep] = GetParam();
  Scenario s = SmallScenario(19);
  TrainerConfig c = ChaosConfig(protocol, 2, 12);
  c.lockstep = lockstep;
  for (const std::size_t rank : {std::size_t{0}, std::size_t{1}}) {
    WorkerFaultSchedule w;
    w.rank = rank;
    w.crash_at_iteration = 3;
    c.fault.workers.push_back(w);
  }
  ASSERT_EQ(c.Validate(), "");

  const TrainResult r = core::RunTraining(c, s.factory, s.train, s.val);

  EXPECT_EQ(r.live_workers, 0u);
  ASSERT_FALSE(r.final_params.empty());
  for (float p : r.final_params) ASSERT_TRUE(std::isfinite(p));
  EXPECT_TRUE(std::isfinite(r.final_loss));
}

INSTANTIATE_TEST_SUITE_P(
    Chaos, EveryRankCrashes,
    ::testing::Combine(::testing::Values(Protocol::kRna, Protocol::kEagerSgd,
                                         Protocol::kRnaHierarchical,
                                         Protocol::kAdPsgd),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<Protocol, bool>>& info) {
      std::string name = train::ProtocolName(std::get<0>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + (std::get<1>(info.param) ? "_lockstep" : "_free");
    });

// The data plane under fire: 10% of all fabric traffic dropped while every
// rank drives the timed AllreduceFor. An aborted attempt leaves a ring
// half-flown, so the regression this locks is twofold: (1) no hop ever
// blocks past its deadline — the run terminates; (2) purging the aborted
// call's tag range really clears the in-flight hops, so a retry on fresh
// tags is never satisfied by a stale hop and a fully-completed round is
// exact on every rank. World 6 moves 60 messages per attempt, so the storm
// reaches attempt 0 (done_attempt >= 1) instead of passing vacuously.
TEST(Chaos, AllreduceRidesOutDropStorm) {
  constexpr std::size_t kWorld = 6;
  constexpr std::size_t kElems = 384;
  constexpr int kMaxAttempts = 64;
  net::Fabric fabric(kWorld);
  const auto group = collectives::Group::Full(kWorld);
  const int round_span = collectives::RingTagSpan(kWorld);

  const std::uint64_t seed = 23 + MatrixSeed();
  std::printf("[ CHAOS    ] allreduce-drop seed=%llu\n",
              static_cast<unsigned long long>(seed));
  auto fault_plan = std::make_shared<net::FaultPlan>(seed);
  net::FaultRule drop;
  drop.drop_prob = 0.10;
  // Confine the storm to the first attempts' tag range: under an endless
  // 10% drop an attempt where *every* rank completes is a 0.9^60 lottery.
  // The storm window still hammers the purge/retry path; the clean tail
  // guarantees convergence.
  drop.tag_lo = 0;
  drop.tag_hi = 4 * round_span - 1;
  fault_plan->AddRule(drop);
  fabric.InstallFaultPlan(fault_plan);

  // Lockstep retries via an in-process std::barrier: a collective needs all
  // members, so no rank may stop retrying while a peer still failed (a drop
  // is observed only by its receiver — ranks CAN disagree on whether an
  // attempt succeeded). Real protocols get this from their controller.
  std::barrier sync(static_cast<std::ptrdiff_t>(kWorld));
  std::atomic<int> ok_count{0};
  std::atomic<int> done_attempt{-1};
  std::vector<std::vector<float>> data(kWorld);
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < kWorld; ++r) {
    threads.emplace_back([&, r] {
      for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
        const int tag_base = attempt * round_span;
        data[r].assign(kElems, static_cast<float>(r + 1));
        collectives::CollectiveOptions opts;
        opts.tag_base = tag_base;
        opts.hop_timeout = 0.25;
        if (collectives::AllreduceFor({fabric, group, r}, opts, data[r])) {
          ok_count.fetch_add(1);
        } else {
          // Aborted mid-ring: purge the attempt's tag range so no stale
          // half-flown hop can satisfy a later round's receive.
          fabric.Purge(r, tag_base, tag_base + round_span - 1);
        }
        sync.arrive_and_wait();
        if (r == 0 && ok_count.exchange(0) == static_cast<int>(kWorld)) {
          done_attempt.store(attempt);
        }
        sync.arrive_and_wait();
        if (done_attempt.load() >= 0) return;
      }
    });
  }
  for (auto& t : threads) t.join();

  // (1) Termination: some attempt completed on every rank within budget —
  // no hop blocked past its deadline and purge really cleared the ring —
  // and the storm did hit: attempt 0 failed somewhere.
  ASSERT_GE(done_attempt.load(), 1) << "the storm never hit attempt 0";
  // (2) Consistency: the agreed attempt's sum is exact (1+2+...+6 per
  // element) on every rank — a stale-hop corruption would break this.
  for (std::size_t r = 0; r < kWorld; ++r) {
    for (const float x : data[r]) ASSERT_EQ(x, 21.0f) << "rank " << r;
  }
}

// The compressed data plane under the same fire: an int8-quantized
// allreduce with per-rank error-feedback residuals riding out a 10% drop
// storm. Beyond the uncompressed scenario's termination/purge guarantees,
// this locks (1) aborted attempts leave the residual buffers finite and
// bounded — a retry after a half-flown lossy ring must not compound
// garbage into later rounds — and (2) the completed attempt's result is
// bitwise identical on every rank (the verbatim-forward contract) and
// within quantization tolerance of the exact sum.
TEST(Chaos, CompressedAllreduceKeepsResidualsThroughDropStorm) {
  constexpr std::size_t kWorld = 6;
  constexpr std::size_t kElems = 384;
  constexpr int kMaxAttempts = 64;
  net::Fabric fabric(kWorld);
  const auto group = collectives::Group::Full(kWorld);
  const int round_span = collectives::RingTagSpan(kWorld);

  const std::uint64_t seed = 29 + MatrixSeed();
  std::printf("[ CHAOS    ] compressed-allreduce-drop seed=%llu\n",
              static_cast<unsigned long long>(seed));
  auto fault_plan = std::make_shared<net::FaultPlan>(seed);
  net::FaultRule drop;
  drop.drop_prob = 0.10;
  drop.tag_lo = 0;
  drop.tag_hi = 4 * round_span - 1;
  fault_plan->AddRule(drop);
  fabric.InstallFaultPlan(fault_plan);

  std::barrier sync(static_cast<std::ptrdiff_t>(kWorld));
  std::atomic<int> ok_count{0};
  std::atomic<int> done_attempt{-1};
  std::vector<std::vector<float>> data(kWorld);
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < kWorld; ++r) {
    threads.emplace_back([&, r] {
      // One residual buffer across all attempts: aborts must not wreck it.
      collectives::ErrorFeedback feedback;
      feedback.EnsureSize(kElems);
      for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
        collectives::CollectiveOptions opts;
        opts.compression = collectives::Compression::kInt8;
        opts.feedback = &feedback;
        opts.tag_base = attempt * round_span;
        opts.hop_timeout = 0.25;
        data[r].assign(kElems, static_cast<float>(r + 1));
        if (collectives::AllreduceFor({fabric, group, r}, opts, data[r])) {
          ok_count.fetch_add(1);
        } else {
          fabric.Purge(r, opts.tag_base, opts.tag_base + round_span - 1);
        }
        // Residuals stay finite and within one quantization step of zero
        // regardless of where the abort cut the ring.
        ASSERT_EQ(feedback.Size(), kElems);
        for (const float res : feedback.All()) {
          ASSERT_TRUE(std::isfinite(res));
          ASSERT_LE(std::fabs(res), 1.0f);
        }
        sync.arrive_and_wait();
        if (r == 0 && ok_count.exchange(0) == static_cast<int>(kWorld)) {
          done_attempt.store(attempt);
        }
        sync.arrive_and_wait();
        if (done_attempt.load() >= 0) return;
      }
    });
  }
  for (auto& t : threads) t.join();

  ASSERT_GE(done_attempt.load(), 1) << "the storm never hit attempt 0";
  for (std::size_t r = 0; r < kWorld; ++r) {
    for (std::size_t i = 0; i < kElems; ++i) {
      // Quantization tolerance around the exact sum 1+2+...+6…
      ASSERT_NEAR(data[r][i], 21.0f, 0.5f) << "rank " << r;
      // …and bitwise agreement across ranks: every rank decodes the same
      // owner-encoded frames (verbatim gather forwarding).
      ASSERT_EQ(data[r][i], data[0][i]) << "rank " << r << " diverged";
    }
  }
}

}  // namespace
}  // namespace rna::chaos
