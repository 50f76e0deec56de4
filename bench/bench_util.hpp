#pragma once

// Shared scaffolding for the experiment harnesses that regenerate the
// paper's tables and figures. Each paper workload maps to a scaled-down
// proxy (see DESIGN.md's substitution table): the *ratios* between compute
// time, injected heterogeneity, and model size mirror the paper's setup so
// the comparative shapes reproduce, while absolute magnitudes are shrunk to
// keep every bench in the seconds range.
//
// Heterogeneity scaling: the paper's testbed mixes K80 / 1080Ti / 2080Ti
// hardware (≈2–3× deterministic spread) and injects U(0,50) ms dynamic
// delays on ~0.5–1.2 s iterations. The proxies use ~1.5 ms synthetic
// "iterations" with the same relative spread.

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "rna/core/rna.hpp"
#include "rna/data/generators.hpp"
#include "rna/obs/export.hpp"
#include "rna/obs/session.hpp"
#include "rna/train/group_engine.hpp"

namespace rna::benchutil {

struct NamedScenario {
  std::string name;
  data::Dataset train;
  data::Dataset val;
  train::ModelFactory factory;
  double target_loss = 0.5;
  double learning_rate = 0.15;
  std::size_t batch_size = 16;
  data::SamplingMode sampling = data::SamplingMode::kUniform;
  // GPU-compute emulation (see TrainerConfig): sleep ∝ sequence length.
  double sleep_per_step = 0.0;
};

/// ResNet50 stand-in: a deep-ish MLP on Gaussian clusters (balanced
/// compute, moderate parameter count).
inline NamedScenario MakeResnetProxy(std::uint64_t seed = 1) {
  NamedScenario s;
  s.name = "resnet50";
  data::Dataset all = data::MakeGaussianClusters(4000, 16, 8, 0.7, seed);
  std::tie(s.train, s.val) = all.SplitHoldout(0.2);
  s.factory = [](std::uint64_t model_seed) {
    return std::make_unique<nn::MlpClassifier>(
        std::vector<std::size_t>{16, 48, 48, 32, 8}, model_seed, "resnet50");
  };
  s.target_loss = 0.75;
  s.learning_rate = 0.1;
  return s;
}

/// VGG16 stand-in: a wide two-layer MLP — few compute steps per parameter,
/// i.e., communication-heavy, like VGG's 138 M parameters.
inline NamedScenario MakeVggProxy(std::uint64_t seed = 2) {
  NamedScenario s;
  s.name = "vgg16";
  data::Dataset all = data::MakeGaussianClusters(4000, 24, 6, 0.75, seed);
  std::tie(s.train, s.val) = all.SplitHoldout(0.2);
  s.factory = [](std::uint64_t model_seed) {
    return std::make_unique<nn::MlpClassifier>(
        std::vector<std::size_t>{24, 512, 6}, model_seed, "vgg16");
  };
  s.target_loss = 0.75;
  s.learning_rate = 0.1;
  return s;
}

/// LSTM-on-UCF101 stand-in: a real LSTM on variable-length sequences whose
/// length distribution is the (scaled) Figure 2(a) video distribution, so
/// per-batch compute is genuinely long-tailed.
inline NamedScenario MakeLstmProxy(std::uint64_t seed = 3) {
  NamedScenario s;
  s.name = "lstm";
  // Lengths keep the Figure 2(a) shape (scaled 16×: mean ~11.6, max ~111);
  // the real LSTM provides exact gradients while per-batch "GPU time" is
  // emulated as sleep ∝ Σ lengths — recurrent compute is linear in length.
  const data::LengthModel lengths = data::VideoLengths(/*scale=*/16.0);
  data::Dataset all =
      data::MakeSequenceDataset(960, 6, 6, lengths, 1.2, seed);
  std::tie(s.train, s.val) = all.SplitHoldout(0.2);
  s.factory = [](std::uint64_t model_seed) {
    return std::make_unique<nn::LstmClassifier>(6, 16, 6, model_seed, 0.0);
  };
  s.target_loss = 0.75;
  s.learning_rate = 0.1;
  s.batch_size = 8;
  // Bucketed batching: batches of similar-length videos, so batch compute
  // follows the heavy-tailed length distribution (Figure 2(b)).
  s.sampling = data::SamplingMode::kLengthBucketed;
  s.sleep_per_step = 50e-6;
  return s;
}

/// Transformer-on-WMT17 stand-in: self-attention over variable-length
/// "sentences" (quadratic compute in length → inherent imbalance).
inline NamedScenario MakeTransformerProxy(std::uint64_t seed = 4) {
  NamedScenario s;
  s.name = "transformer";
  data::Dataset all =
      data::MakeSequenceDataset(960, 6, 6, data::SentenceLengths(), 0.25, seed);
  std::tie(s.train, s.val) = all.SplitHoldout(0.2);
  s.factory = [](std::uint64_t model_seed) {
    return std::make_unique<nn::AttentionClassifier>(6, 16, 6, model_seed);
  };
  s.target_loss = 1.0;
  s.learning_rate = 0.2;
  s.batch_size = 8;
  s.sampling = data::SamplingMode::kLengthBucketed;
  // WMT-style token-capped batching makes batch time ~linear in the bucket
  // length, emulated with a linear per-step sleep.
  s.sleep_per_step = 30e-6;
  return s;
}

/// The testbed's hardware mix (Table 2: K80 / 1080Ti / 2080Ti ≈ 3× spread)
/// plus the §8.1 dynamic random slowdown, scaled to the proxies'
/// millisecond iterations.
inline std::shared_ptr<const sim::IterationTimeModel> DynamicDelays(
    std::size_t world) {
  std::vector<double> tiers(world);
  for (std::size_t w = 0; w < world; ++w) {
    tiers[w] = 1.0 + static_cast<double>(w % 3);  // 1× / 2× / 3× machines
  }
  return std::make_shared<sim::TieredJitterModel>(0.001, std::move(tiers),
                                                  0.0, 0.001);
}

/// Mixed heterogeneity (§8.1): on top of the hardware mix, the second half
/// of the machines (group B) gets an extra deterministic slowdown — the
/// paper's +U(50,100) ms regime, same relative magnitude.
inline std::shared_ptr<const sim::IterationTimeModel> MixedDelays(
    std::size_t world) {
  std::vector<double> tiers(world);
  for (std::size_t w = 0; w < world; ++w) {
    tiers[w] = 1.0 + static_cast<double>(w % 3);
    if (w >= world / 2) tiers[w] += 3.0;  // group B: persistent stragglers
  }
  return std::make_shared<sim::TieredJitterModel>(0.001, std::move(tiers),
                                                  0.0, 0.001);
}

inline train::TrainerConfig BaseBenchConfig(train::Protocol protocol,
                                            const NamedScenario& scenario,
                                            std::size_t world = 4) {
  train::TrainerConfig c;
  c.protocol = protocol;
  c.world = world;
  c.batch_size = scenario.batch_size;
  c.sampling = scenario.sampling;
  c.sleep_per_step = scenario.sleep_per_step;
  // The host may be single-core: keep the monitor's evaluation footprint
  // small so it does not steal compute from the worker threads.
  c.eval_samples = 96;
  c.sgd.learning_rate = scenario.learning_rate;
  // Moderate momentum: high momentum (0.9) interacts badly with the very
  // high round rates of the partial collectives on these scaled-down
  // proxies (velocity accumulates across near-identical rounds); 0.5 is
  // stable for every protocol and is used uniformly for fairness.
  c.sgd.momentum = 0.5;
  c.max_rounds = 4000;
  c.target_loss = scenario.target_loss;
  c.patience = 0;
  c.eval_period_s = 0.02;
  c.seed = 1234;
  return c;
}

/// Runs a protocol on a scenario and returns the result (time-to-target is
/// result.wall_seconds when reached_target).
inline train::TrainResult RunProtocol(train::Protocol protocol,
                                      const NamedScenario& scenario,
                                      train::TrainerConfig config) {
  config.protocol = protocol;
  if (protocol == train::Protocol::kAdPsgd) {
    config.sgd.momentum = 0.0;  // gossip averaging uses plain SGD
  }
  return core::RunTraining(config, scenario.factory, scenario.train,
                           scenario.val);
}

/// Mean wall time over `repeats` independent runs (sub-second cells are
/// noisy under real thread scheduling; the paper's figures average full
/// training jobs).
inline double MeanTimeToTarget(train::Protocol protocol,
                               const NamedScenario& scenario,
                               train::TrainerConfig config,
                               std::size_t repeats = 3) {
  double total = 0.0;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    config.seed = 1234 + 101 * rep;
    total += RunProtocol(protocol, scenario, config).wall_seconds;
  }
  return total / static_cast<double>(repeats);
}

inline void PrintRule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

// ---------------------------------------------------------------------------
// Machine-readable bench output: BenchRow and WriteBenchJson live in
// bench_json.hpp (included above) so JSON emission does not require the
// training stack. Trace export plumbing shared by the harnesses follows.

/// "out/trace.json" + "rna" → "out/trace-rna.json" — harnesses that run
/// several protocols against one --trace-out flag write one file per run.
inline std::string WithRunLabel(const std::string& path,
                                const std::string& label) {
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + "-" + label;
  }
  return path.substr(0, dot) + "-" + label + path.substr(dot);
}

}  // namespace rna::benchutil
