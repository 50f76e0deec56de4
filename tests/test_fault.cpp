// Tests for the fault-injection layer: the FaultPlan's determinism contract
// (decisions are a pure function of seed + stream coordinates, never of
// thread timing), scripted sequence-window rules, first-match-wins rule
// shadowing, fabric-level injection behavior, the per-run FaultRuntime
// (crash / hang / flaky schedules), and the lockstep RoundRobinGate.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "rna/common/clock.hpp"
#include "rna/common/mutex.hpp"
#include "rna/net/fabric.hpp"
#include "rna/net/fault.hpp"
#include "rna/ps/server.hpp"
#include "rna/train/config.hpp"
#include "rna/train/fault.hpp"

namespace rna {
namespace {

// --------------------------------------------------------------------------
// FaultPlan: the determinism contract.

TEST(FaultPlan, SameSeedSameDecisions) {
  const auto run = [](std::uint64_t seed) {
    net::FaultPlan plan(seed);
    net::FaultRule rule;
    rule.drop_prob = 0.3;
    rule.dup_prob = 0.2;
    rule.delay_prob = 0.1;
    rule.delay_s = 0.001;
    plan.AddRule(rule);
    std::vector<net::FaultDecision> out;
    for (int i = 0; i < 200; ++i) {
      out.push_back(plan.Decide(0, 1, 7));
      out.push_back(plan.Decide(1, 0, 7));
      out.push_back(plan.Decide(0, 1, 9));
    }
    return out;
  };
  const auto a = run(1234);
  const auto b = run(1234);
  const auto c = run(1235);
  ASSERT_EQ(a.size(), b.size());
  bool any_differs_from_c = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].drop, b[i].drop) << "decision " << i;
    EXPECT_EQ(a[i].duplicate, b[i].duplicate) << "decision " << i;
    EXPECT_EQ(a[i].extra_delay, b[i].extra_delay) << "decision " << i;
    any_differs_from_c |= a[i].drop != c[i].drop;
  }
  EXPECT_TRUE(any_differs_from_c) << "seed must actually matter";
}

TEST(FaultPlan, StreamsAreIndependent) {
  // Interleaving Decide calls across streams must not perturb any single
  // stream's decisions: each (from, to, tag) keeps its own sequence counter.
  net::FaultPlan solo(99);
  net::FaultPlan mixed(99);
  net::FaultRule rule;
  rule.drop_prob = 0.5;
  solo.AddRule(rule);
  mixed.AddRule(rule);
  std::vector<bool> solo_drops;
  for (int i = 0; i < 50; ++i) solo_drops.push_back(solo.Decide(0, 1, 3).drop);
  for (int i = 0; i < 50; ++i) {
    (void)mixed.Decide(2, 1, 3);  // noise on another stream
    EXPECT_EQ(mixed.Decide(0, 1, 3).drop, solo_drops[static_cast<std::size_t>(i)])
        << "decision " << i;
  }
}

TEST(FaultPlan, ScriptedSeqWindowHitsExactMessage) {
  // {seq_begin = 3, seq_end = 4, drop_prob = 1} drops exactly the 4th
  // message of the matched stream — the scripted-chaos primitive.
  net::FaultPlan plan(7);
  net::FaultRule rule;
  rule.from = 0;
  rule.to = 1;
  rule.tag_lo = 5;
  rule.tag_hi = 5;
  rule.seq_begin = 3;
  rule.seq_end = 4;
  rule.drop_prob = 1.0;
  plan.AddRule(rule);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(plan.Decide(0, 1, 5).drop, i == 3) << "message " << i;
  }
  // Another stream with the same tag is untouched.
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(plan.Decide(1, 0, 5).drop);
}

TEST(FaultPlan, FirstMatchingRuleWins) {
  // A narrow always-deliver rule shadows a catch-all always-drop rule —
  // the mechanism BuildFaultPlan uses to give PS traffic its own drop rate.
  net::FaultPlan plan(7);
  net::FaultRule keep;
  keep.tag_lo = 100;
  keep.tag_hi = 100;
  plan.AddRule(keep);  // all probabilities zero: deliver
  net::FaultRule drop_all;
  drop_all.drop_prob = 1.0;
  plan.AddRule(drop_all);
  EXPECT_FALSE(plan.Decide(0, 1, 100).drop);
  EXPECT_TRUE(plan.Decide(0, 1, 101).drop);
}

TEST(FaultPlan, CountersTally) {
  net::FaultPlan plan(7);
  net::FaultRule rule;
  rule.drop_prob = 1.0;
  plan.AddRule(rule);
  for (int i = 0; i < 5; ++i) (void)plan.Decide(0, 1, 1);
  const net::FaultCounters totals = plan.Totals();
  EXPECT_EQ(totals.examined, 5u);
  EXPECT_EQ(totals.dropped, 5u);
  EXPECT_EQ(totals.duplicated, 0u);
}

// --------------------------------------------------------------------------
// Fabric-level injection.

TEST(FabricFault, DropRuleSwallowsMatchingTraffic) {
  net::Fabric fabric(2);
  auto plan = std::make_shared<net::FaultPlan>(11);
  net::FaultRule rule;
  rule.tag_lo = 5;
  rule.tag_hi = 5;
  rule.drop_prob = 1.0;
  plan->AddRule(rule);
  fabric.InstallFaultPlan(plan);
  net::Message doomed;
  doomed.tag = 5;
  fabric.Send(0, 1, std::move(doomed));
  net::Message fine;
  fine.tag = 6;
  fabric.Send(0, 1, std::move(fine));
  EXPECT_TRUE(fabric.RecvFor(1, 6, 1.0).has_value());
  EXPECT_FALSE(fabric.TryRecv(1, 5).has_value());
  EXPECT_EQ(plan->Totals().dropped, 1u);
  // Traffic stats still count the send: the sender paid for the bytes.
  EXPECT_EQ(fabric.StatsFor(0).messages_sent, 2u);
}

TEST(FabricFault, DuplicateRuleDeliversTwice) {
  net::Fabric fabric(2);
  auto plan = std::make_shared<net::FaultPlan>(11);
  net::FaultRule rule;
  rule.dup_prob = 1.0;
  plan->AddRule(rule);
  fabric.InstallFaultPlan(plan);
  net::Message m;
  m.tag = 3;
  m.meta = {42};
  fabric.Send(0, 1, std::move(m));
  auto first = fabric.RecvFor(1, 3, 1.0);
  auto second = fabric.RecvFor(1, 3, 1.0);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->meta[0], 42);
  EXPECT_EQ(second->meta[0], 42);
  EXPECT_EQ(plan->Totals().duplicated, 1u);
}

TEST(FabricFault, DelayRuleDefersDelivery) {
  // No latency model: the delay fault alone must spin up the timer thread.
  net::Fabric fabric(2);
  auto plan = std::make_shared<net::FaultPlan>(11);
  net::FaultRule rule;
  rule.delay_prob = 1.0;
  rule.delay_s = 0.03;
  plan->AddRule(rule);
  fabric.InstallFaultPlan(plan);
  net::Message m;
  m.tag = 1;
  const common::Stopwatch watch;
  fabric.Send(0, 1, std::move(m));
  EXPECT_FALSE(fabric.TryRecv(1, 1).has_value());  // still in flight
  auto msg = fabric.RecvFor(1, 1, 5.0);
  ASSERT_TRUE(msg.has_value());
  EXPECT_GE(watch.Elapsed(), 0.025);
  EXPECT_EQ(plan->Totals().delayed, 1u);
}

// --------------------------------------------------------------------------
// BuildFaultPlan / EffectiveFaultSeed lowering.

TEST(BuildFaultPlan, NullWhenNoNetworkFault) {
  train::TrainerConfig config;
  EXPECT_EQ(train::BuildFaultPlan(config), nullptr);
  // Worker-schedule-only faults need no network plan either.
  config.fault.workers.push_back({});
  EXPECT_EQ(train::BuildFaultPlan(config), nullptr);
}

TEST(BuildFaultPlan, PsRuleShadowsCatchAll) {
  // ps_drop_prob = 1 with drop_prob = 0: PS tags are dropped, the rest of
  // the traffic — including tags adjacent to the PS range — is delivered.
  train::TrainerConfig config;
  config.fault.ps_drop_prob = 1.0;
  config.fault.delay_prob = 0.0;
  auto plan = train::BuildFaultPlan(config);
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(plan->Decide(0, 1, ps::PsTags::kRequest).drop);
  EXPECT_TRUE(plan->Decide(0, 1, ps::PsTags::kReply).drop);
  EXPECT_FALSE(plan->Decide(0, 1, ps::PsTags::kRequest - 1).drop);
  EXPECT_FALSE(plan->Decide(0, 1, ps::PsTags::kReply + 1).drop);
}

TEST(EffectiveFaultSeed, DerivedFromTrainingSeedWhenUnset) {
  train::TrainerConfig a;
  a.seed = 42;
  train::TrainerConfig b = a;
  EXPECT_EQ(train::EffectiveFaultSeed(a), train::EffectiveFaultSeed(b));
  b.seed = 43;
  EXPECT_NE(train::EffectiveFaultSeed(a), train::EffectiveFaultSeed(b));
  b.fault.seed = 777;  // explicit fault seed wins over the derivation
  EXPECT_EQ(train::EffectiveFaultSeed(b), 777u);
}

// --------------------------------------------------------------------------
// FaultRuntime: worker schedules.

TEST(FaultRuntime, CrashAtIterationIsSticky) {
  train::TrainerConfig config;
  config.world = 2;
  train::WorkerFaultSchedule s;
  s.rank = 1;
  s.crash_at_iteration = 3;
  config.fault.workers.push_back(s);
  train::FaultRuntime faults(config);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(faults.BeforeIteration(1, i), train::IterationFate::kRun);
  }
  EXPECT_EQ(faults.BeforeIteration(1, 3), train::IterationFate::kCrash);
  // >= (not ==): once past the death iteration the rank may never run again.
  EXPECT_EQ(faults.BeforeIteration(1, 7), train::IterationFate::kCrash);
  // Rank 0 is unscheduled and unaffected.
  EXPECT_EQ(faults.BeforeIteration(0, 100), train::IterationFate::kRun);
}

TEST(FaultRuntime, KillIsPermanentAndCounted) {
  train::TrainerConfig config;
  config.world = 3;
  train::FaultRuntime faults(config);
  EXPECT_EQ(faults.LiveCount(), 3u);
  faults.Kill(1);
  faults.Kill(1);  // idempotent
  EXPECT_FALSE(faults.Alive(1));
  EXPECT_EQ(faults.LiveCount(), 2u);
  // A killed rank crashes at its next compute hook regardless of schedule.
  EXPECT_EQ(faults.BeforeIteration(1, 0), train::IterationFate::kCrash);
}

TEST(FaultRuntime, ShouldCrashInRoundFiresFromScheduledRound) {
  train::TrainerConfig config;
  config.world = 2;
  train::WorkerFaultSchedule s;
  s.rank = 0;
  s.crash_in_round = 2;
  config.fault.workers.push_back(s);
  train::FaultRuntime faults(config);
  EXPECT_FALSE(faults.ShouldCrashInRound(0, 1));
  EXPECT_TRUE(faults.ShouldCrashInRound(0, 2));
  EXPECT_TRUE(faults.ShouldCrashInRound(0, 5));  // >= until the kill lands
  faults.Kill(0);
  EXPECT_FALSE(faults.ShouldCrashInRound(0, 5));  // already dead
  EXPECT_FALSE(faults.ShouldCrashInRound(1, 2));  // unscheduled rank
}

TEST(FaultRuntime, FlakyWindowIsDeterministicPerSeed) {
  // The flaky coin flips come from a hash of (fault seed, rank, iteration),
  // so two runtimes with the same config agree on *which* iterations sleep.
  // Observe the decision through wall clock with a measurable delay.
  train::TrainerConfig config;
  config.world = 1;
  config.fault.seed = 31337;
  train::WorkerFaultSchedule s;
  s.rank = 0;
  s.flaky_from_iteration = 0;
  s.flaky_until_iteration = 12;
  s.flaky_prob = 0.5;
  s.flaky_delay_s = 0.02;
  config.fault.workers.push_back(s);
  const auto observe = [&config] {
    train::FaultRuntime faults(config);
    std::vector<bool> slept;
    for (std::size_t i = 0; i < 12; ++i) {
      const common::Stopwatch watch;
      EXPECT_EQ(faults.BeforeIteration(0, i), train::IterationFate::kRun);
      slept.push_back(watch.Elapsed() >= 0.01);
    }
    return slept;
  };
  EXPECT_EQ(observe(), observe());
}

// --------------------------------------------------------------------------
// RoundRobinGate: the lockstep pacer for controller-less protocols.

// Long enough to never fire on a turn that is coming.
constexpr common::Seconds kTurnWait = 10.0;

TEST(RoundRobinGate, EnforcesFixedGlobalOrder) {
  const std::size_t world = 3;
  const int iters = 5;
  train::RoundRobinGate gate(world);
  common::Mutex mu;
  std::vector<std::size_t> order;
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < world; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < iters; ++i) {
        if (!gate.AcquireTurnFor(w, kTurnWait)) return;
        {
          common::MutexLock lock(mu);
          order.push_back(w);
        }
        gate.ReleaseTurn(w);
      }
      gate.Retire(w);
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(order.size(), world * iters);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i % world) << "slot " << i;
  }
}

TEST(RoundRobinGate, RetiredRankIsSkipped) {
  train::RoundRobinGate gate(3);
  gate.Retire(1);
  std::vector<std::size_t> order;
  std::thread t0([&] {
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(gate.AcquireTurnFor(0, kTurnWait));
      order.push_back(0);
      gate.ReleaseTurn(0);
    }
    gate.Retire(0);
  });
  std::thread t2([&] {
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(gate.AcquireTurnFor(2, kTurnWait));
      order.push_back(2);
      gate.ReleaseTurn(2);
    }
    gate.Retire(2);
  });
  t0.join();
  t2.join();
  const std::vector<std::size_t> expect = {0, 2, 0, 2};
  EXPECT_EQ(order, expect);
}

TEST(RoundRobinGate, AcquireTurnForTimesOutWhenTurnNeverComes) {
  train::RoundRobinGate gate(2);
  // Rank 0 holds the cursor and never releases: rank 1's timed acquire must
  // give up instead of stalling its report deadline.
  const common::Stopwatch watch;
  EXPECT_FALSE(gate.AcquireTurnFor(1, 0.02));
  EXPECT_GE(watch.Elapsed(), 0.015);
  // Retiring the blocker hands rank 1 the turn.
  gate.Retire(0);
  EXPECT_TRUE(gate.AcquireTurnFor(1, 1.0));
  gate.ReleaseTurn(1);
}

TEST(RoundRobinGate, ShutdownReleasesWaiters) {
  train::RoundRobinGate gate(2);
  std::thread waiter([&] {
    const common::Stopwatch watch;
    EXPECT_FALSE(gate.AcquireTurnFor(1, kTurnWait));
    EXPECT_LT(watch.Elapsed(), kTurnWait / 2);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  gate.Shutdown();
  waiter.join();
}

TEST(RoundRobinGate, RetireOfCurrentHolderAdvancesCursor) {
  // The "Retire after break" safety net: a rank that exits its loop while
  // holding the turn must not wedge the rotation. Double-retire is benign.
  train::RoundRobinGate gate(2);
  ASSERT_TRUE(gate.AcquireTurnFor(0, kTurnWait));
  gate.Retire(0);  // still holding the turn
  gate.Retire(0);  // and the loop-exit path retires again
  EXPECT_TRUE(gate.AcquireTurnFor(1, 1.0));
  gate.ReleaseTurn(1);
}

}  // namespace
}  // namespace rna
