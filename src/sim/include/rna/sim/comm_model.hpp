#pragma once

// Analytic communication and staging-copy cost models used by the
// discrete-event protocol simulators, plus the catalog of the paper's
// evaluation models (parameter counts from §7.2, per-iteration compute
// calibrated against Table 5's measured copy-overhead percentages).

#include <cstddef>
#include <string>
#include <vector>

#include "rna/common/clock.hpp"

namespace rna::sim {

using common::Seconds;

/// Classic α-β model: a message of S bytes costs α + S/B.
struct CommModel {
  Seconds alpha = 10e-6;          ///< per-message latency (s)
  double bandwidth = 1.25e9;      ///< link bandwidth, bytes/s (10 GbE default)

  Seconds PointToPoint(std::size_t bytes) const {
    return alpha + static_cast<double>(bytes) / bandwidth;
  }

  /// Ring allreduce of an S-byte buffer over N workers:
  /// 2(N−1) steps, each moving S/N bytes — the bandwidth-optimal schedule.
  Seconds RingAllreduce(std::size_t world, std::size_t bytes) const {
    if (world < 2) return 0.0;
    const double chunk = static_cast<double>(bytes) / static_cast<double>(world);
    return 2.0 * static_cast<double>(world - 1) * (alpha + chunk / bandwidth);
  }
};

/// Host↔device staging copies over PCIe (Table 5's "transmission cost").
/// RNA stages gradients to host memory before the CPU-side MPI allreduce
/// and copies the reduced result back, so each iteration pays two copies.
struct CopyModel {
  double pcie_bandwidth = 6.0e9;  ///< effective bytes/s

  Seconds HostDeviceCopy(std::size_t bytes) const {
    return static_cast<double>(bytes) / pcie_bandwidth;
  }

  /// Down + up copy for one gradient exchange.
  Seconds RoundTrip(std::size_t bytes) const {
    return 2.0 * HostDeviceCopy(bytes);
  }
};

/// The paper's evaluation models (§7.2). `base_iteration` is the mean
/// homogeneous compute time per iteration; values are calibrated so the
/// copy-overhead percentages of Table 5 are reproduced by CopyModel.
struct ModelSpec {
  std::string name;
  std::size_t parameters = 0;
  Seconds base_iteration = 0.0;

  std::size_t GradientBytes() const { return parameters * sizeof(float); }
};

/// ResNet50 (25,559,081 params), VGG16 (138M), LSTM (34,663,525),
/// Transformer (61,362,176) — in that order.
const std::vector<ModelSpec>& PaperModels();

const ModelSpec& FindModel(const std::string& name);

}  // namespace rna::sim
