#include "rna/nn/init.hpp"

#include <cmath>

namespace rna::nn {

void XavierUniform(tensor::Tensor& w, std::size_t fan_in, std::size_t fan_out,
                   common::Rng& rng) {
  const double limit =
      std::sqrt(6.0 / (static_cast<double>(fan_in) + static_cast<double>(fan_out)));
  for (auto& x : w.Flat()) x = static_cast<float>(rng.Uniform(-limit, limit));
}

}  // namespace rna::nn
