#include "rna/nn/optimizer.hpp"

#include "rna/common/check.hpp"

namespace rna::nn {

SgdMomentum::SgdMomentum(std::size_t param_count, SgdConfig config)
    : config_(config), velocity_(param_count, 0.0f) {}

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
