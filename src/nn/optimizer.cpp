#include "rna/nn/optimizer.hpp"

#include <cmath>

#include "rna/common/check.hpp"

namespace rna::nn {

SgdMomentum::SgdMomentum(std::size_t param_count, SgdConfig config)
    : config_(config), velocity_(param_count, 0.0f) {}

Adam::Adam(std::size_t param_count, AdamConfig config)
    : config_(config), m_(param_count, 0.0f), v_(param_count, 0.0f) {}

void Adam::Step(std::span<float> params, std::span<const float> grad,
                double lr_scale) {
  RNA_CHECK(params.size() == m_.size());
  RNA_CHECK(grad.size() == m_.size());
  ++steps_;
  const auto b1 = static_cast<float>(config_.beta1);
  const auto b2 = static_cast<float>(config_.beta2);
  const auto wd = static_cast<float>(config_.weight_decay);
  const auto eps = static_cast<float>(config_.epsilon);
  const double bias1 =
      1.0 - std::pow(config_.beta1, static_cast<double>(steps_));
  const double bias2 =
      1.0 - std::pow(config_.beta2, static_cast<double>(steps_));
  const auto lr = static_cast<float>(config_.learning_rate * lr_scale *
                                     std::sqrt(bias2) / bias1);
  for (std::size_t i = 0; i < params.size(); ++i) {
    const float g = grad[i] + wd * params[i];
    m_[i] = b1 * m_[i] + (1.0f - b1) * g;
    v_[i] = b2 * v_[i] + (1.0f - b2) * g * g;
    params[i] -= lr * m_[i] / (std::sqrt(v_[i]) + eps);
  }
}

void SgdMomentum::Step(std::span<float> params, std::span<const float> grad,
                       double lr_scale) {
  RNA_CHECK(params.size() == velocity_.size());
  RNA_CHECK(grad.size() == velocity_.size());
  const auto momentum = static_cast<float>(config_.momentum);
  const auto wd = static_cast<float>(config_.weight_decay);
  const auto lr = static_cast<float>(config_.learning_rate * lr_scale);
  for (std::size_t i = 0; i < params.size(); ++i) {
    const float g = grad[i] + wd * params[i];
    velocity_[i] = momentum * velocity_[i] + g;
    params[i] -= lr * velocity_[i];
  }
}

}  // namespace rna::nn
