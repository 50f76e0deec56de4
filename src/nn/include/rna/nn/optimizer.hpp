#pragma once

// SGD with momentum and weight decay, operating on flat parameter/gradient
// buffers. Working on the flat staging format keeps the optimizer identical
// across synchronization protocols, and lets RNA apply its per-iteration
// Linear-Scaling-Rule learning-rate adjustment through `lr_scale`.

#include <cstddef>
#include <span>
#include <vector>

namespace rna::nn {

struct SgdConfig {
  double learning_rate = 0.1;
  double momentum = 0.9;
  double weight_decay = 0.0;
};

class SgdMomentum {
 public:
  SgdMomentum(std::size_t param_count, SgdConfig config);

  /// params -= lr_scale·lr · v, where v = momentum·v + grad + wd·params.
  void Step(std::span<float> params, std::span<const float> grad,
            double lr_scale = 1.0);

  /// Multiplies the learning rate in place (used for decay schedules).
  void DecayLearningRate(double factor) { config_.learning_rate *= factor; }

 private:
  SgdConfig config_;
  std::vector<float> velocity_;
};

struct AdamConfig {
  double learning_rate = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
  double weight_decay = 0.0;
};

/// Adam with bias correction, on flat buffers like SgdMomentum (so it plugs
/// into the same staging path; `lr_scale` carries the Linear Scaling Rule).
class Adam {
 public:
  Adam(std::size_t param_count, AdamConfig config);

  void Step(std::span<float> params, std::span<const float> grad,
            double lr_scale = 1.0);

  std::size_t StepsTaken() const { return steps_; }

 private:
  AdamConfig config_;
  std::vector<float> m_;
  std::vector<float> v_;
  std::size_t steps_ = 0;
};

}  // namespace rna::nn
