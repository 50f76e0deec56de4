#pragma once

// Weight initialization schemes.

#include "rna/common/rng.hpp"
#include "rna/tensor/tensor.hpp"

namespace rna::nn {

/// Xavier/Glorot uniform: U(-limit, limit), limit = sqrt(6 / (fan_in + fan_out)).
void XavierUniform(tensor::Tensor& w, std::size_t fan_in, std::size_t fan_out,
                   common::Rng& rng);

}  // namespace rna::nn
