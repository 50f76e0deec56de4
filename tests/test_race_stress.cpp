// TSan-targeted race-stress tests. Each test hammers one lock-protected
// layer — BlockingQueue, the net fabric, the parameter server, the gradient
// stage/param board, and a miniature partial-collective run — with as much
// thread interleaving as the scenario allows, then checks conservation
// invariants (nothing lost, nothing duplicated). Under the `tsan` preset
// (cmake --preset tsan) ThreadSanitizer additionally proves the
// interleavings are race-free; under plain builds these still catch
// lost-wakeup and lost-item bugs.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

#include "rna/common/queue.hpp"
#include "rna/core/rna.hpp"
#include "rna/data/batch_generator.hpp"
#include "rna/data/generators.hpp"
#include "rna/data/shard_view.hpp"
#include "rna/net/fabric.hpp"
#include "rna/nn/network.hpp"
#include "rna/nn/optimizer.hpp"
#include "rna/ps/server.hpp"
#include "rna/sim/workload.hpp"
#include "rna/train/group_engine.hpp"
#include "rna/train/stage.hpp"

namespace rna {
namespace {

using namespace std::chrono_literals;

// Every fabric receive has a deadline; this one never fires on a message
// that is on its way, and a shutdown ends the wait long before it.
constexpr common::Seconds kTestWait = 10.0;

// ---------------------------------------------------------------------------
// BlockingQueue

TEST(RaceStress, QueueMpmcPushPopClose) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 2000;

  common::BlockingQueue<int> q;
  std::atomic<long long> accepted_sum{0};
  std::atomic<long long> popped_sum{0};
  std::atomic<int> accepted{0};
  std::atomic<int> popped{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int value = p * kPerProducer + i;
        if (q.Push(value)) {
          accepted.fetch_add(1);
          accepted_sum.fetch_add(value);
        }
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (auto item = q.Pop()) {
        popped.fetch_add(1);
        popped_sum.fetch_add(*item);
      }
    });
  }
  // Noisy observers: Size/Empty/Closed from outside both roles.
  std::atomic<bool> observing{true};
  std::thread observer([&] {
    while (observing.load()) {
      (void)q.Size();
      (void)q.Empty();
      (void)q.Closed();
    }
  });

  // Close mid-stream: producers racing Close must either get the item in
  // (then a consumer pops it) or see the push rejected — never both.
  std::this_thread::sleep_for(5ms);
  q.Close();
  for (auto& t : threads) t.join();
  observing.store(false);
  observer.join();

  EXPECT_EQ(accepted.load(), popped.load());
  EXPECT_EQ(accepted_sum.load(), popped_sum.load());
  EXPECT_TRUE(q.Empty());
  EXPECT_TRUE(q.Closed());
}

TEST(RaceStress, QueueTimedPopsUnderChurn) {
  common::BlockingQueue<int> q;
  std::atomic<int> got{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      for (;;) {
        auto item = q.PopFor(2ms);
        if (item.has_value()) {
          got.fetch_add(1);
        } else if (q.Closed()) {
          // nullopt + closed can still race one last delivery; drain.
          while (q.TryPop()) got.fetch_add(1);
          return;
        }
      }
    });
  }
  constexpr int kItems = 3000;
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) q.Push(i);
    q.Close();
  });
  producer.join();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(got.load(), kItems);
}

// ---------------------------------------------------------------------------
// Streaming batch generators. Many generators share one immutable dataset
// through zero-copy shard views while each runs its own prefetch thread;
// consumers pop concurrently from different threads. The conservation
// invariant is per-generator determinism: every consumer must see exactly
// the stream a synchronous same-seed generator produces, no matter how the
// producer threads interleave on the shared storage. The final third of the
// generators is destroyed while its producer is blocked mid-Push, stressing
// the Stop()/Close() handshake under TSan.

TEST(RaceStress, ConcurrentBatchGenerators) {
  constexpr std::size_t kGenerators = 8;
  constexpr int kBatches = 40;

  data::LengthModel lengths{.mean = 12, .stddev = 6, .min_len = 2,
                            .max_len = 40};
  const data::Dataset ds =
      data::MakeSequenceDataset(64, 4, 3, lengths, 0.1, 31);

  // Reference streams from synchronous generators (no threads involved).
  std::vector<std::vector<std::int32_t>> expected_labels(kGenerators);
  for (std::size_t g = 0; g < kGenerators; ++g) {
    data::BatchGeneratorOptions opt{
        .batch_size = 4,
        .seed = 100 + g,
        .mode = g % 2 ? data::SamplingMode::kLengthBucketed
                      : data::SamplingMode::kUniform,
        .prefetch_depth = 0};
    data::BatchGenerator gen(data::ShardView::Strided(ds, g, kGenerators),
                             opt);
    for (int b = 0; b < kBatches; ++b) {
      for (std::int32_t label : gen.Next().labels) {
        expected_labels[g].push_back(label);
      }
    }
  }

  std::vector<std::unique_ptr<data::BatchGenerator>> generators;
  for (std::size_t g = 0; g < kGenerators; ++g) {
    data::BatchGeneratorOptions opt{
        .batch_size = 4,
        .seed = 100 + g,
        .mode = g % 2 ? data::SamplingMode::kLengthBucketed
                      : data::SamplingMode::kUniform,
        .prefetch_depth = 2};
    generators.push_back(std::make_unique<data::BatchGenerator>(
        data::ShardView::Strided(ds, g, kGenerators), opt));
  }

  std::vector<std::vector<std::int32_t>> got_labels(kGenerators);
  std::vector<std::thread> consumers;
  for (std::size_t g = 0; g < kGenerators; ++g) {
    consumers.emplace_back([&, g] {
      // The last generators consume only part of their stream; destruction
      // below then races their producers mid-assembly.
      const int batches = g >= kGenerators - 3 ? kBatches / 4 : kBatches;
      for (int b = 0; b < batches; ++b) {
        for (std::int32_t label : generators[g]->Next().labels) {
          got_labels[g].push_back(label);
        }
      }
    });
  }
  for (auto& t : consumers) t.join();
  generators.clear();  // Stop() joins every producer, blocked or not

  for (std::size_t g = 0; g < kGenerators; ++g) {
    ASSERT_EQ(got_labels[g],
              std::vector<std::int32_t>(
                  expected_labels[g].begin(),
                  expected_labels[g].begin() +
                      static_cast<std::ptrdiff_t>(got_labels[g].size())))
        << "generator " << g << " diverged from its synchronous twin";
  }
}

// ---------------------------------------------------------------------------
// Net fabric

TEST(RaceStress, FabricAllToAllUnderLatencyChurn) {
  constexpr std::size_t kWorld = 4;
  constexpr int kPerPeer = 200;
  constexpr int kTag = 7;

  // Deterministic latency keyed off the route: every endpoint exercises
  // both the immediate path and the timer-thread path concurrently.
  net::Fabric fabric(kWorld, [](net::Rank from, net::Rank to, std::size_t) {
    return ((from * 7 + to * 3) % 4) * 0.0002;
  });

  std::vector<std::thread> peers;
  std::atomic<int> received{0};
  for (std::size_t r = 0; r < kWorld; ++r) {
    peers.emplace_back([&, r] {
      const int to_send = kPerPeer * static_cast<int>(kWorld - 1);
      const int expected = kPerPeer * static_cast<int>(kWorld - 1);
      int got = 0;
      int sent = 0;
      // Round-robin over peers (so every rank receives exactly `expected`
      // messages), interleaving sends with timed/try receives to churn the
      // mailbox from both sides at once.
      while (sent < to_send || got < expected) {
        if (sent < to_send) {
          auto to = static_cast<net::Rank>(sent % (kWorld - 1));
          if (to >= r) ++to;
          net::Message msg;
          msg.tag = kTag;
          msg.meta = {static_cast<std::int64_t>(sent)};
          fabric.Send(r, to, std::move(msg));
          ++sent;
        }
        if (auto msg = fabric.TryRecv(r, kTag)) ++got;
        if (got < expected) {
          if (auto msg = fabric.RecvFor(r, kTag, 0.001)) ++got;
        }
        (void)fabric.StatsFor(r);
      }
      received.fetch_add(got);
    });
  }
  for (auto& t : peers) t.join();

  // Sends are per-rank deterministic, so everything must be delivered even
  // though routing raced the timer thread.
  EXPECT_EQ(received.load(),
            static_cast<int>(kWorld * (kWorld - 1) * kPerPeer));
  const net::TrafficStats total = fabric.TotalStats();
  EXPECT_EQ(total.messages_sent, kWorld * (kWorld - 1) * kPerPeer);
  fabric.Shutdown();
  EXPECT_FALSE(fabric.RecvFor(0, kTag, kTestWait).has_value());
}

TEST(RaceStress, FabricShutdownWakesBlockedReceivers) {
  net::Fabric fabric(3);
  std::vector<std::thread> blocked;
  std::atomic<int> woke{0};
  for (net::Rank r = 0; r < 3; ++r) {
    blocked.emplace_back([&, r] {
      const int tags[] = {1, 2};
      const common::Stopwatch watch;
      EXPECT_FALSE(fabric.RecvAnyFor(r, tags, kTestWait).has_value());
      EXPECT_LT(watch.Elapsed(), kTestWait / 2);
      woke.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(2ms);
  fabric.Shutdown();
  for (auto& t : blocked) t.join();
  EXPECT_EQ(woke.load(), 3);
}

// ---------------------------------------------------------------------------
// Parameter server

TEST(RaceStress, PsConcurrentPushPull) {
  constexpr std::size_t kDim = 64;
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kCallsPerClient = 100;

  net::Fabric fabric(kClients + 1);
  const net::Rank server_rank = kClients;
  ps::ParameterServer server(fabric, server_rank,
                             std::vector<float>(kDim, 0.0f));
  server.Start();

  // Every client assigns its own constant vector under the server's state
  // lock, so any concurrently pulled state must be constant-valued — a
  // direct probe of request atomicity.
  std::vector<std::thread> clients;
  std::atomic<int> atomicity_violations{0};
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ps::PsClient client(fabric, static_cast<net::Rank>(c), server_rank,
                          kDim);
      const std::vector<float> mine(kDim, static_cast<float>(c + 1));
      for (std::size_t i = 0; i < kCallsPerClient; ++i) {
        const std::optional<std::vector<float>> state =
            i % 3 == 0 ? client.TryPull()
                       : client.TryPushPull(mine, ps::ApplyMode::kAssign);
        ASSERT_TRUE(state.has_value());
        for (std::size_t d = 1; d < state->size(); ++d) {
          if ((*state)[d] != (*state)[0]) {
            atomicity_violations.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  server.Stop();

  EXPECT_EQ(atomicity_violations.load(), 0);
  EXPECT_EQ(server.RequestsServed(), kClients * kCallsPerClient);
  const std::vector<float> final_state = server.Snapshot();
  ASSERT_EQ(final_state.size(), kDim);
  EXPECT_GE(final_state[0], 1.0f);
  EXPECT_LE(final_state[0], static_cast<float>(kClients));
  for (float v : final_state) EXPECT_EQ(v, final_state[0]);
}

// ---------------------------------------------------------------------------
// Gradient stage + param board

TEST(RaceStress, StageWriteDrainAndBoardPublishRead) {
  constexpr std::size_t kDim = 32;
  constexpr int kWrites = 4000;

  train::GradientStage stage(kDim, /*staleness_bound=*/3,
                             train::LocalCombine::kMean);
  train::ParamBoard board(std::vector<float>(kDim, 0.0f));
  std::atomic<bool> writer_done{false};
  std::atomic<long long> drained_count{0};

  std::thread writer([&] {  // the compute-thread role
    std::vector<float> grad(kDim, 1.0f);
    for (int i = 0; i < kWrites; ++i) stage.Write(grad, i);
    writer_done.store(true);
  });
  std::thread drainer([&] {  // the comm-thread role
    std::vector<float> params(kDim, 0.0f);
    std::int64_t version = 0;
    for (;;) {
      const bool done = writer_done.load();
      if (auto d = stage.Drain()) {
        drained_count.fetch_add(static_cast<long long>(d->count));
        board.Publish(params, ++version);
      } else if (done) {
        return;
      }
    }
  });
  std::vector<std::thread> readers;  // compute + monitor ReadOp role
  std::atomic<bool> reading{true};
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      std::vector<float> snap(kDim);
      std::int64_t seen = 0;
      while (reading.load()) {
        seen = board.ReadIfNewer(seen, snap);
        (void)stage.HasGradient();
        (void)stage.BufferedCount();
      }
    });
  }

  writer.join();
  drainer.join();
  reading.store(false);
  for (auto& t : readers) t.join();

  // Bounded staleness: every write is either drained or counted dropped.
  EXPECT_EQ(drained_count.load() + static_cast<long long>(stage.Dropped()),
            kWrites);
  EXPECT_FALSE(stage.HasGradient());
}

// ---------------------------------------------------------------------------
// Miniature partial-collective run: comm/compute/controller/monitor threads
// with the most aggressive interleaving the engine supports (solo trigger,
// tight staleness bound, near-continuous monitor evals).

TEST(RaceStress, PartialEngineMaxInterleaving) {
  data::Dataset all = data::MakeGaussianClusters(240, 6, 3, 0.4, 11);
  auto [train_data, val_data] = all.SplitHoldout(0.25);
  train::ModelFactory factory = [](std::uint64_t seed) {
    return std::make_unique<nn::MlpClassifier>(
        std::vector<std::size_t>{6, 10, 3}, seed);
  };

  train::TrainerConfig config;
  config.world = 4;
  config.batch_size = 8;
  config.max_rounds = 40;
  config.staleness_bound = 2;
  config.patience = 0;
  config.eval_period_s = 0.0005;  // monitor hammers the param board
  config.seed = 123;

  const train::TrainResult result = train::RunPartialCollective(
      config, factory, train_data, val_data, train::MakeSoloPolicy);

  EXPECT_EQ(result.rounds, 40u);
  EXPECT_GT(result.gradients_applied, 0u);
  EXPECT_EQ(result.round_contributors.size(), result.rounds);
  for (std::size_t contributors : result.round_contributors) {
    EXPECT_LE(contributors, config.world);
  }
  EXPECT_FALSE(result.final_params.empty());
}

// ---------------------------------------------------------------------------
// Free-running hierarchical RNA calibrates every rank on its own thread, then
// hands each WorkerContext to that rank's compute thread. Length-bucketed
// sequence shards with prefetch on make the hand-off carry the most state:
// the prefetch producer started during calibration, the arena pinned to the
// rank's own longest sequence, and the delay rng. TSan checks that the
// calibration joins order all of it before training touches it.

TEST(RaceStress, HierarchicalCalibrationHandsOffWorkers) {
  data::LengthModel lengths{.mean = 10, .stddev = 5, .min_len = 2,
                            .max_len = 24};
  data::Dataset all = data::MakeSequenceDataset(160, 4, 3, lengths, 0.1, 41);
  auto [train_data, val_data] = all.SplitHoldout(0.25);
  train::ModelFactory factory = [](std::uint64_t seed) {
    return std::make_unique<nn::LstmClassifier>(4, 8, 3, seed, 0.0);
  };

  train::TrainerConfig config;
  config.protocol = train::Protocol::kRnaHierarchical;
  config.world = 4;
  config.batch_size = 4;
  config.sampling = data::SamplingMode::kLengthBucketed;
  config.calibration_iters = 3;
  config.delay_model = std::make_shared<sim::DeterministicSkewModel>(
      0.0005, std::vector<double>{0.0, 0.0, 0.004, 0.004});
  config.max_rounds = 30;
  config.patience = 0;
  config.eval_period_s = 0.002;
  config.seed = 43;

  const train::TrainResult result =
      core::RunTraining(config, factory, train_data, val_data);

  EXPECT_GT(result.rounds, 0u);
  EXPECT_GT(result.gradients_applied, 0u);
  EXPECT_EQ(result.live_workers, config.world);
  ASSERT_EQ(result.breakdown.size(), config.world);
  for (const train::WorkerTimeBreakdown& b : result.breakdown) {
    EXPECT_GT(b.iterations, 0u);
  }
  ASSERT_FALSE(result.final_params.empty());
  for (float p : result.final_params) ASSERT_TRUE(std::isfinite(p));
}

// ---------------------------------------------------------------------------
// Two whole training worlds in one process. Every run owns its Fabric (and
// that Fabric's BufferPool), its own observability accumulators, and its own
// membership state, so two engines running concurrently must not perturb
// each other at all. The probe is bitwise: a lockstep run is a pure function
// of its config, so the run executed alongside a different, busy world must
// equal the same run executed alone — any cross-fabric buffer reuse, shared
// counter, or leaked membership would break the equality (and TSan flags the
// race itself under the tsan preset).

TEST(RaceStress, TwoConcurrentWorldsStayIsolated) {
  data::Dataset all = data::MakeGaussianClusters(240, 6, 3, 0.4, 21);
  auto [train_data, val_data] = all.SplitHoldout(0.25);
  train::ModelFactory factory = [](std::uint64_t seed) {
    return std::make_unique<nn::MlpClassifier>(
        std::vector<std::size_t>{6, 10, 3}, seed);
  };

  train::TrainerConfig probe;
  probe.world = 3;
  probe.batch_size = 8;
  probe.max_rounds = 8;
  probe.lockstep = true;
  probe.target_loss = -1.0;
  probe.patience = 1000000;
  probe.seed = 51;
  probe.model_seed = 52;

  // The neighbor world runs rna-h with different seeds: two speed tiers
  // give two groups whose leaders sync through its PS, stressing its own
  // fabric's buffer pool.
  train::TrainerConfig noisy = probe;
  noisy.protocol = train::Protocol::kRnaHierarchical;
  noisy.world = 4;
  noisy.max_rounds = 20;
  noisy.delay_model = std::make_shared<sim::DeterministicSkewModel>(
      0.0005, std::vector<common::Seconds>{0.0, 0.0, 0.002, 0.002});
  noisy.seed = 77;
  noisy.model_seed = 78;

  const train::TrainResult solo = train::RunPartialCollective(
      probe, factory, train_data, val_data, train::MakeMajorityPolicy);

  train::TrainResult concurrent;
  train::TrainResult neighbor;
  std::thread probe_thread([&] {
    concurrent = train::RunPartialCollective(
        probe, factory, train_data, val_data, train::MakeMajorityPolicy);
  });
  std::thread noisy_thread([&] {
    neighbor = core::RunTraining(noisy, factory, train_data, val_data);
  });
  probe_thread.join();
  noisy_thread.join();

  ASSERT_EQ(concurrent.final_params.size(), solo.final_params.size());
  for (std::size_t i = 0; i < solo.final_params.size(); ++i) {
    ASSERT_EQ(concurrent.final_params[i], solo.final_params[i])
        << "param " << i << " perturbed by the neighboring world";
  }
  EXPECT_EQ(concurrent.rounds, solo.rounds);
  EXPECT_EQ(concurrent.round_contributors, solo.round_contributors);
  EXPECT_EQ(concurrent.gradients_applied, solo.gradients_applied);
  // The neighbor's own run stayed healthy too.
  EXPECT_EQ(neighbor.rounds, noisy.max_rounds);
  EXPECT_EQ(neighbor.live_workers, 4u);
  for (float p : neighbor.final_params) ASSERT_TRUE(std::isfinite(p));
}

// ---------------------------------------------------------------------------
// Compute arenas. Each Network owns its own arena and activates it through a
// thread_local current-arena pointer, so N workers training concurrently on
// one process must never share scratch. Same-seed replicas stepping the same
// batch must then produce IDENTICAL loss sequences on every thread — any
// cross-thread scratch aliasing (or a data race TSan would flag) breaks the
// bitwise agreement.

TEST(RaceStress, ConcurrentArenaTrainingIsIsolated) {
  constexpr int kThreads = 8;
  constexpr int kIters = 6;
  constexpr std::uint64_t kSeed = 17;

  // Build the shared batch once, outside the arena scopes.
  nn::Batch batch;
  {
    common::Rng rng(kSeed);
    for (int i = 0; i < 5; ++i) {
      const std::size_t len = 3 + rng.UniformInt(5);
      tensor::Tensor seq({len, 6});
      for (auto& x : seq.Flat()) x = static_cast<float>(rng.Normal(0, 1));
      batch.sequences.push_back(std::move(seq));
      batch.labels.push_back(static_cast<std::int32_t>(rng.UniformInt(3)));
    }
  }

  std::vector<std::vector<double>> losses(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Same-seed replica per thread; dropout off so loss streams depend
      // only on params + batch, not per-net Rng draw interleaving.
      nn::LstmClassifier net(6, 12, 3, kSeed, /*dropout_rate=*/0.0);
      nn::SgdMomentum opt(net.ParamCount(),
                          {.learning_rate = 0.05, .momentum = 0.9});
      for (int i = 0; i < kIters; ++i) {
        losses[t].push_back(net.ForwardBackward(batch).loss);
        opt.Step(net.ParamsFlat(), net.GradsFlat());
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(losses[t], losses[0])
        << "thread " << t << " diverged from thread 0 — arena scratch leaked "
        << "across threads";
  }
}

}  // namespace
}  // namespace rna
