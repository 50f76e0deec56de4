#pragma once

// The benchmark's three workloads and the outside-in hooks it times them
// with. Everything here sits on the library's public extension points — the
// model factory and the delay model a TrainerConfig accepts — so the
// program under test is exactly the one the repository builds.
//
//   * Timed<Model> is a timing *subclass* of a workload model class. It
//     times ForwardBackward / Evaluate and hands the intervals to a
//     HookLedger when the replica is destroyed. A subclass (not a wrapping
//     decorator) keeps the model's own compute arena in play, so
//     WorkerContext::PinArenaCapacity pins the arena the steps really use.
//   * DelayProbe is a pass-through sim::IterationTimeModel that counts the
//     injected delays the ranks draw.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rna/common/clock.hpp"
#include "rna/data/generators.hpp"
#include "rna/nn/network.hpp"
#include "rna/sim/workload.hpp"
#include "rna/train/config.hpp"

namespace perfbench {

using rna::common::SteadyClock;

// ---------------------------------------------------------------------------
// Hooks

/// Collects the model-call intervals of every replica a run builds.
class HookLedger {
 public:
  struct Interval {
    SteadyClock::time_point start;
    SteadyClock::time_point end;
  };
  /// One replica's calls, oldest first.
  struct Replica {
    std::vector<Interval> forward_backward;
    std::vector<Interval> evaluate;
  };

  void Add(Replica replica) {
    std::lock_guard<std::mutex> lock(mu_);
    replicas_.push_back(std::move(replica));
  }

  /// Every replica handed in so far. Call after the run returned (all
  /// replicas are destroyed by then).
  std::vector<Replica> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(replicas_, {});
  }

 private:
  std::mutex mu_;
  std::vector<Replica> replicas_;
};

/// Timing subclass of a model class: same parameters, same arena, same
/// arithmetic; each call's [start, end) is kept locally (one replica is used
/// by one thread at a time) and handed to the ledger on destruction.
template <class Model>
class Timed final : public Model {
 public:
  template <class... Args>
  explicit Timed(HookLedger& ledger, Args&&... args)
      : Model(std::forward<Args>(args)...), ledger_(ledger) {
    calls_.forward_backward.reserve(1 << 12);
  }
  ~Timed() override { ledger_.Add(std::move(calls_)); }

  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  rna::nn::BatchResult ForwardBackward(const rna::nn::Batch& batch) override {
    const SteadyClock::time_point start = SteadyClock::now();
    rna::nn::BatchResult result = Model::ForwardBackward(batch);
    calls_.forward_backward.push_back({start, SteadyClock::now()});
    return result;
  }

  rna::nn::BatchResult Evaluate(const rna::nn::Batch& batch) override {
    const SteadyClock::time_point start = SteadyClock::now();
    rna::nn::BatchResult result = Model::Evaluate(batch);
    calls_.evaluate.push_back({start, SteadyClock::now()});
    return result;
  }

 private:
  HookLedger& ledger_;
  HookLedger::Replica calls_;
};

/// Pass-through delay model: returns exactly what the wrapped model draws
/// (same rng stream) and counts the draws. Workers sample concurrently.
class DelayProbe final : public rna::sim::IterationTimeModel {
 public:
  explicit DelayProbe(std::shared_ptr<const rna::sim::IterationTimeModel> inner)
      : inner_(std::move(inner)) {}

  rna::common::Seconds Sample(std::size_t worker, std::size_t iteration,
                              rna::common::Rng& rng) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_->Sample(worker, iteration, rng);
  }

  std::uint64_t Calls() const { return calls_.load(); }

 private:
  std::shared_ptr<const rna::sim::IterationTimeModel> inner_;
  mutable std::atomic<std::uint64_t> calls_{0};
};

// ---------------------------------------------------------------------------
// Workloads

enum class Kind { kMixedHetero, kLstmImbalance, kLockstepComm };

struct WorkloadSpec {
  Kind kind;
  const char* name;
  /// time_to_target_s: first monitor eval at or below this loss.
  double target_loss;
  /// A seed that ends below this full-validation accuracy fails.
  double accuracy_floor;
};

inline const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {Kind::kMixedHetero, "mixed-hetero", 0.45, 0.80},
      {Kind::kLstmImbalance, "lstm-imbalance", 0.50, 0.85},
      {Kind::kLockstepComm, "lockstep-comm", 0.65, 0.80},
  };
  return specs;
}

inline const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Everything one training run consumes, generated from one seed.
struct Task {
  rna::data::Dataset train;
  rna::data::Dataset val;
  rna::train::ModelFactory factory;
  rna::train::TrainerConfig config;
  /// Non-null when the run's delay model is wrapped in a probe.
  std::shared_ptr<const DelayProbe> delay_probe;
};

/// Builds the run for `seed`: data, model factory and config. With a
/// ledger, models are Timed subclasses and the delay model is probed.
inline Task MakeTask(Kind kind, std::uint64_t seed, HookLedger* hooks) {
  using rna::train::Protocol;
  Task t;
  rna::train::TrainerConfig& c = t.config;
  // Shared settings (the bench/ harness proxies' settings): small monitor
  // subsample, plain momentum SGD, a fixed round budget with no early stop.
  c.eval_samples = 96;
  c.eval_period_s = 0.01;
  c.sgd.learning_rate = 0.1;
  c.sgd.momentum = 0.5;
  c.target_loss = -1.0;
  c.patience = 0;
  // The dataset and the initial model are the workload's fixed task; the
  // seed drives the run: batch order, injected delay draws and the
  // controller's probe elections.
  constexpr std::uint64_t kTaskSeed = 5;
  c.model_seed = 7;
  c.seed = seed;

  auto mlp = [hooks](std::vector<std::size_t> dims, const char* name) {
    return [hooks, dims, name](std::uint64_t model_seed)
               -> std::unique_ptr<rna::nn::Network> {
      if (hooks != nullptr) {
        return std::make_unique<Timed<rna::nn::MlpClassifier>>(
            *hooks, dims, model_seed, name);
      }
      return std::make_unique<rna::nn::MlpClassifier>(dims, model_seed, name);
    };
  };

  switch (kind) {
    case Kind::kMixedHetero: {
      // ResNet50 proxy under the §8.1 mixed regime: 1×/2×/3× hardware
      // tiers, a persistent +3× slow half, 1 ms uniform jitter.
      rna::data::Dataset all =
          rna::data::MakeGaussianClusters(4000, 16, 8, 0.7, kTaskSeed);
      std::tie(t.train, t.val) = all.SplitHoldout(0.2);
      t.factory = mlp({16, 48, 48, 32, 8}, "resnet50");
      c.protocol = Protocol::kRnaHierarchical;
      c.world = 6;
      c.batch_size = 16;
      c.max_rounds = 1000;
      std::vector<double> tiers(c.world);
      for (std::size_t w = 0; w < c.world; ++w) {
        tiers[w] = 1.0 + static_cast<double>(w % 3);
        if (w >= c.world / 2) tiers[w] += 3.0;
      }
      std::shared_ptr<const rna::sim::IterationTimeModel> delays =
          std::make_shared<rna::sim::TieredJitterModel>(0.001, tiers, 0.0,
                                                        0.001);
      if (hooks != nullptr) {
        auto probe = std::make_shared<DelayProbe>(delays);
        t.delay_probe = probe;
        delays = probe;
      }
      c.delay_model = delays;
      break;
    }
    case Kind::kLstmImbalance: {
      // Real LSTM on length-bucketed Figure 2(a) sequences. Each batch runs
      // its true forward/backward and then sleeps 10 µs per sequence step,
      // the accelerator time the paper's imbalance comes from: about 70% of
      // a batch, so the run is not at the mercy of the host's CPU share.
      rna::data::Dataset all = rna::data::MakeSequenceDataset(
          960, 6, 6, rna::data::VideoLengths(16.0), 1.2, kTaskSeed);
      std::tie(t.train, t.val) = all.SplitHoldout(0.2);
      t.factory = [hooks](std::uint64_t model_seed)
          -> std::unique_ptr<rna::nn::Network> {
        if (hooks != nullptr) {
          return std::make_unique<Timed<rna::nn::LstmClassifier>>(
              *hooks, 6, 16, 6, model_seed, 0.0);
        }
        return std::make_unique<rna::nn::LstmClassifier>(6, 16, 6, model_seed,
                                                         0.0);
      };
      c.protocol = Protocol::kRna;
      c.world = 3;
      c.batch_size = 8;
      c.sampling = rna::data::SamplingMode::kLengthBucketed;
      c.sgd.learning_rate = 0.01;
      c.sleep_per_step = 1e-5;
      c.max_rounds = 1500;
      break;
    }
    case Kind::kLockstepComm: {
      // VGG16 proxy (wide, ~16K params) paced one token per worker per
      // round: the 14-hop ring and the controller sit on the critical path.
      rna::data::Dataset all =
          rna::data::MakeGaussianClusters(4000, 24, 6, 0.75, kTaskSeed);
      std::tie(t.train, t.val) = all.SplitHoldout(0.2);
      t.factory = mlp({24, 512, 6}, "vgg16");
      c.protocol = Protocol::kRna;
      c.world = 8;
      c.batch_size = 16;
      c.lockstep = true;
      c.sgd.learning_rate = 0.01;
      c.max_rounds = 800;
      break;
    }
  }
  if (std::string why = c.Validate(); !why.empty()) {
    throw std::logic_error("perfbench: invalid workload config: " + why);
  }
  return t;
}

}  // namespace perfbench
