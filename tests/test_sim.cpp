// Tests for the discrete-event engine, workload models, communication cost
// models, and the protocol timing simulators — including the qualitative
// properties the paper's figures rest on (RNA beats BSP under stragglers,
// two probes beat one, etc.).

#include <gtest/gtest.h>

#include <cmath>

#include "rna/common/stats.hpp"
#include "rna/sim/comm_model.hpp"
#include "rna/sim/engine.hpp"
#include "rna/sim/protocols.hpp"
#include "rna/sim/workload.hpp"

namespace rna::sim {
namespace {

TEST(Engine, EventsFireInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.Schedule(3.0, [&] { order.push_back(3); });
  engine.Schedule(1.0, [&] { order.push_back(1); });
  engine.Schedule(2.0, [&] { order.push_back(2); });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.Now(), 3.0);
}

TEST(Engine, TiesBreakByInsertionOrder) {
  Engine engine;
  std::vector<int> order;
  engine.Schedule(1.0, [&] { order.push_back(1); });
  engine.Schedule(1.0, [&] { order.push_back(2); });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Engine, HandlersCanScheduleMoreEvents) {
  Engine engine;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 5) engine.Schedule(1.0, chain);
  };
  engine.Schedule(1.0, chain);
  engine.Run();
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(engine.Now(), 5.0);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine engine;
  int fired = 0;
  engine.Schedule(1.0, [&] { ++fired; });
  engine.Schedule(10.0, [&] { ++fired; });
  engine.RunUntil(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(engine.Now(), 5.0);
  EXPECT_EQ(engine.PendingEvents(), 1u);
}

TEST(Engine, RejectsPastScheduling) {
  Engine engine;
  engine.Schedule(1.0, [] {});
  engine.Run();
  EXPECT_THROW(engine.ScheduleAt(0.5, [] {}), std::logic_error);
}

TEST(Workload, UniformSlowdownWithinBounds) {
  UniformSlowdownModel model(0.1, 0.0, 0.05);
  common::Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const Seconds t = model.Sample(0, i, rng);
    EXPECT_GE(t, 0.1);
    EXPECT_LT(t, 0.15);
  }
}

TEST(Workload, DeterministicSkewIsExact) {
  DeterministicSkewModel model(0.1, {0.0, 0.010, 0.040});
  common::Rng rng(2);
  EXPECT_DOUBLE_EQ(model.Sample(0, 0, rng), 0.1);
  EXPECT_DOUBLE_EQ(model.Sample(1, 5, rng), 0.110);
  EXPECT_DOUBLE_EQ(model.Sample(2, 9, rng), 0.140);
  EXPECT_THROW(model.Sample(3, 0, rng), std::logic_error);
}

TEST(Workload, MixedGroupSlowSetIsSlower) {
  MixedGroupModel model(0.1, 0.05, 0.05, 0.10,
                        {false, false, true, true});
  common::Rng rng(3);
  common::OnlineStats fast, slow;
  for (int i = 0; i < 5000; ++i) {
    fast.Add(model.Sample(0, i, rng));
    slow.Add(model.Sample(2, i, rng));
  }
  EXPECT_NEAR(fast.Mean(), 0.125, 0.005);
  EXPECT_NEAR(slow.Mean(), 0.2, 0.005);
}

TEST(Workload, TieredJitterModel) {
  TieredJitterModel model(0.01, {1.0, 2.0, 3.0}, 0.0, 0.002);
  common::Rng rng(9);
  common::OnlineStats w0, w2;
  for (int i = 0; i < 3000; ++i) {
    const Seconds t0 = model.Sample(0, i, rng);
    const Seconds t2 = model.Sample(2, i, rng);
    EXPECT_GE(t0, 0.01);
    EXPECT_LT(t0, 0.012);
    EXPECT_GE(t2, 0.03);
    EXPECT_LT(t2, 0.032);
    w0.Add(t0);
    w2.Add(t2);
  }
  EXPECT_NEAR(w2.Mean() / w0.Mean(), 31.0 / 11.0, 0.05);
  EXPECT_THROW(model.Sample(3, 0, rng), std::logic_error);
}

TEST(Workload, LongTailMatchesFigure2) {
  const LongTailModel model = LongTailModel::LstmUcf101();
  common::Rng rng(4);
  common::OnlineStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(model.Sample(0, i, rng));
  EXPECT_NEAR(stats.Mean(), 1.219, 0.05);
  EXPECT_NEAR(stats.Stddev(), 0.760, 0.06);
  EXPECT_GE(stats.Min(), 0.156);
  EXPECT_LE(stats.Max(), 8.0);
}

TEST(CommModel, RingAllreduceFormula) {
  CommModel comm{.alpha = 1e-5, .bandwidth = 1e9};
  // 2(N−1)(α + S/(N·B))
  const Seconds t = comm.RingAllreduce(4, 4'000'000);
  EXPECT_NEAR(t, 2.0 * 3.0 * (1e-5 + 1e6 / 1e9), 1e-12);
  EXPECT_DOUBLE_EQ(comm.RingAllreduce(1, 1000), 0.0);
}

TEST(CommModel, PointToPointFormula) {
  CommModel comm{.alpha = 1e-4, .bandwidth = 1e9};
  EXPECT_NEAR(comm.PointToPoint(1'000'000), 1e-4 + 1e-3, 1e-12);
}

TEST(CopyModel, Table5Calibration) {
  // LSTM: 34,663,525 params, two PCIe copies at 6 GB/s over a 1.219 s
  // iteration ≈ 3.8% (Table 5).
  const CopyModel copy;
  const ModelSpec& lstm = FindModel("lstm");
  const double pct =
      copy.RoundTrip(lstm.GradientBytes()) / lstm.base_iteration * 100.0;
  EXPECT_NEAR(pct, 3.8, 0.5);
}

TEST(PaperModels, ParameterCountsFromPaper) {
  EXPECT_EQ(FindModel("resnet50").parameters, 25'559'081u);
  EXPECT_EQ(FindModel("lstm").parameters, 34'663'525u);
  EXPECT_EQ(FindModel("transformer").parameters, 61'362'176u);
  EXPECT_THROW(FindModel("alexnet"), std::logic_error);
}

SimConfig SmallConfig(std::size_t world = 4) {
  SimConfig c;
  c.world = world;
  c.rounds = 200;
  c.model_bytes = 10u << 20;
  c.seed = 7;
  return c;
}

TEST(SimulateBsp, WaitEqualsSlowestMinusOwn) {
  const SimConfig config = SmallConfig(3);
  DeterministicSkewModel model(0.1, {0.0, 0.01, 0.04});
  const SimResult r = SimulateBsp(config, model);
  EXPECT_EQ(r.rounds, 200u);
  EXPECT_EQ(r.gradients_applied, 600u);
  // Worker 0 waits (0.04 per round), worker 2 never waits.
  EXPECT_NEAR(r.breakdown[0].wait, 0.04 * 200, 1e-9);
  EXPECT_NEAR(r.breakdown[2].wait, 0.0, 1e-9);
  EXPECT_NEAR(r.breakdown[1].compute, 0.11 * 200, 1e-9);
}

TEST(SimulateRna, FasterThanBspUnderStragglers) {
  const SimConfig config = SmallConfig(8);
  UniformSlowdownModel model(0.1, 0.0, 0.05);
  const SimResult bsp = SimulateBsp(config, model);
  const SimResult rna = SimulateRna(config, model);
  EXPECT_LT(rna.total_time, bsp.total_time);
  EXPECT_GT(rna.GradientThroughput(), bsp.GradientThroughput());
}

TEST(SimulateRna, GradientAccounting) {
  const SimConfig config = SmallConfig(4);
  UniformSlowdownModel model(0.05, 0.0, 0.02);
  RnaSimOptions options;
  options.staleness_bound = 4;
  const SimResult r = SimulateRna(config, model, options);
  EXPECT_EQ(r.rounds, config.rounds);
  EXPECT_GT(r.gradients_applied, 0u);
  // Per round, a worker can contribute at most `staleness_bound` buffered
  // gradients.
  EXPECT_LE(r.gradients_applied,
            config.rounds * config.world * options.staleness_bound);
}

TEST(SimulateEager, BetweenBspAndRnaUnderSkew) {
  SimConfig config = SmallConfig(8);
  config.rounds = 400;
  // Heavy per-iteration randomness: RNA (min of 2) should trigger earlier
  // than the majority rule on average.
  UniformSlowdownModel model(0.05, 0.0, 0.10);
  const SimResult bsp = SimulateBsp(config, model);
  const SimResult eager = SimulateEagerMajority(config, model);
  const SimResult rna = SimulateRna(config, model);
  EXPECT_LT(eager.total_time, bsp.total_time);
  EXPECT_LT(rna.total_time, bsp.total_time);
}

TEST(SimulateAdPsgd, CompletesTargetIterations) {
  const SimConfig config = SmallConfig(4);
  UniformSlowdownModel model(0.05, 0.0, 0.02);
  const SimResult r = SimulateAdPsgd(config, model);
  EXPECT_EQ(r.gradients_applied, config.rounds * config.world);
  EXPECT_GT(r.total_time, 0.0);
}

TEST(SimulateHierarchical, GroupingRemovesProbeContamination) {
  // Under mixed heterogeneity a flat ring's probes regularly land on the
  // deterministically slow machines, inflating the round time; a
  // speed-homogeneous fast group triggers at its own pace. (The accuracy
  // side of the hierarchical argument is measured by the threaded runtime
  // in bench_fig6_speedup, not by this timing model.)
  SimConfig mixed_config = SmallConfig(8);
  mixed_config.rounds = 400;
  std::vector<bool> slow = {false, false, false, false,
                            true,  true,  true,  true};
  MixedGroupModel mixed(0.05, 0.05, 0.05, 0.10, slow);
  const SimResult flat = SimulateRna(mixed_config, mixed);

  SimConfig fast_config = SmallConfig(4);
  fast_config.rounds = 400;
  UniformSlowdownModel fast_only(0.05, 0.0, 0.05);
  const SimResult grouped_fast = SimulateRna(fast_config, fast_only);

  EXPECT_GT(flat.MeanRoundTime(), grouped_fast.MeanRoundTime());
}

TEST(ProbeResponse, TwoChoicesBeatOne) {
  const LongTailModel tasks = ProbeBenchmarkTasks();
  const auto one = ProbeResponseTimes(100, 1, 500, tasks, 0.0, 11);
  const auto two = ProbeResponseTimes(100, 2, 500, tasks, 0.0, 11);
  const double med1 = common::Percentile(one, 50);
  const double med2 = common::Percentile(two, 50);
  EXPECT_LT(med2, med1);
  EXPECT_GT(med1 / med2, 1.8);  // the paper reports ≈2.4×
}

TEST(ProbeResponse, OversamplingOverheadHurtsEventually) {
  // With per-probe messaging overhead, many probes stop helping.
  const LongTailModel tasks = ProbeBenchmarkTasks();
  const auto q2 = ProbeResponseTimes(100, 2, 300, tasks, 0.004, 13);
  const auto q32 = ProbeResponseTimes(100, 32, 300, tasks, 0.004, 13);
  EXPECT_LT(common::Percentile(q2, 50), common::Percentile(q32, 50));
}

TEST(ProbeResponse, UniformTasksAlsoImprove) {
  const UniformSlowdownModel tasks(0.0, 0.010, 0.050);
  const auto one = ProbeResponseTimes(100, 1, 500, tasks, 0.0, 17);
  const auto two = ProbeResponseTimes(100, 2, 500, tasks, 0.0, 17);
  EXPECT_LT(common::Percentile(two, 50), common::Percentile(one, 50));
}

TEST(ProbeResponse, Deterministic) {
  const LongTailModel tasks = ProbeBenchmarkTasks();
  const auto a = ProbeResponseTimes(50, 2, 100, tasks, 0.0, 5);
  const auto b = ProbeResponseTimes(50, 2, 100, tasks, 0.0, 5);
  EXPECT_EQ(a, b);
}

// Protocol-timing properties over a grid of world sizes: RNA's mean round
// time never exceeds BSP's on the same straggler workload, and adding
// workers never makes a BSP round faster (E[max] is monotone).
class TimingSweep : public ::testing::TestWithParam<int> {};

TEST_P(TimingSweep, RnaRoundsAreNeverSlowerThanBsp) {
  const auto world = static_cast<std::size_t>(GetParam());
  SimConfig config;
  config.world = world;
  config.rounds = 300;
  config.model_bytes = 1u << 20;
  config.seed = 100 + world;
  UniformSlowdownModel model(0.05, 0.0, 0.05);
  const SimResult bsp = SimulateBsp(config, model);
  const SimResult rna = SimulateRna(config, model);
  EXPECT_LE(rna.MeanRoundTime(), bsp.MeanRoundTime() * 1.02);
}

TEST_P(TimingSweep, BspRoundTimeMonotoneInWorld) {
  const auto world = static_cast<std::size_t>(GetParam());
  UniformSlowdownModel model(0.05, 0.0, 0.05);
  SimConfig small;
  small.world = world;
  small.rounds = 400;
  small.model_bytes = 0;  // isolate the barrier effect from comm cost
  small.seed = 9;
  SimConfig big = small;
  big.world = world * 2;
  const SimResult a = SimulateBsp(small, model);
  const SimResult b = SimulateBsp(big, model);
  EXPECT_GE(b.MeanRoundTime(), a.MeanRoundTime() * 0.98);
}

INSTANTIATE_TEST_SUITE_P(Worlds, TimingSweep, ::testing::Values(2, 4, 8, 16));

TEST(Queueing, WaitGrowsLikeOneOverOneMinusRho) {
  // §3.1 cites the 1/(1−ρ) expected-wait law for a loaded queueing system.
  // Validate on an M/M/1 queue simulated with the event engine: the mean
  // wait (sojourn) at ρ=0.8 must be ≈4–5× the wait at ρ=0.4, tracking
  // W = 1/(μ−λ) = (1/μ)·1/(1−ρ).
  auto mean_sojourn = [](double rho) {
    const double mu = 100.0;          // service rate (jobs/s)
    const double lambda = rho * mu;   // arrival rate
    Engine engine;
    common::Rng rng(31);
    double server_free = 0.0;
    double total_wait = 0.0;
    const int jobs = 20000;
    double arrival = 0.0;
    for (int j = 0; j < jobs; ++j) {
      arrival += rng.Exponential(lambda);
      const double start = std::max(arrival, server_free);
      const double service = rng.Exponential(mu);
      server_free = start + service;
      total_wait += server_free - arrival;  // sojourn time
    }
    return total_wait / jobs;
  };
  const double w40 = mean_sojourn(0.4);
  const double w80 = mean_sojourn(0.8);
  // Theory: (1/(1−0.8)) / (1/(1−0.4)) = 3.0 in sojourn ratio.
  EXPECT_NEAR(w80 / w40, 3.0, 0.6);
}

TEST(Simulators, DeterministicUnderSeed) {
  const SimConfig config = SmallConfig(6);
  UniformSlowdownModel model(0.05, 0.0, 0.03);
  const SimResult a = SimulateRna(config, model);
  const SimResult b = SimulateRna(config, model);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.gradients_applied, b.gradients_applied);
}

}  // namespace
}  // namespace rna::sim
