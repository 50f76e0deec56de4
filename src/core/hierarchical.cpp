#include <algorithm>
#include <exception>
#include <thread>

#include "protocol_impls.hpp"
#include "rna/obs/metrics.hpp"
#include "rna/obs/trace.hpp"
#include "rna/sim/workload.hpp"
#include "rna/train/worker.hpp"

namespace rna::core::detail {

using namespace rna::train;

namespace {

// Calibrated mean iteration time of every rank, the input of the ζ>v rule.
std::vector<double> CalibrateIterationTimes(
    const TrainerConfig& config,
    std::span<const std::unique_ptr<WorkerContext>> workers,
    std::span<const float> init, std::size_t calib) {
  const std::size_t world = workers.size();
  std::vector<double> iter_times(world);
  if (config.lockstep) {
    // Deterministic calibration: average the injected-delay model's nominal
    // samples (same seed stream the workers will use) instead of racing
    // wall clocks, so the grouping replays bit-identically.
    for (std::size_t w = 0; w < world; ++w) {
      double sum = 0.0;
      if (config.delay_model) {
        common::Rng rng(config.seed + 2000 + 97 * w);
        for (std::size_t i = 0; i < calib; ++i) {
          sum += config.delay_model->Sample(w, i, rng) * config.delay_scale;
        }
      }
      iter_times[w] = sum / static_cast<double>(calib);
    }
    return iter_times;
  }
  // Every rank measures itself at once, as on the paper's cluster: the
  // phase costs calib × the slowest rank instead of calib × Σ ranks, and it
  // sees the CPU contention concurrent training will. Each thread touches
  // only its own context and slots; the joins hand the contexts (delay rng,
  // pinned arena, started prefetch producer) back before the compute
  // threads take them over. A rank's failure (a throwing model or check)
  // reaches the caller as it would from a serial loop.
  std::vector<std::exception_ptr> failures(world);
  std::vector<std::thread> calibrators;
  calibrators.reserve(world);
  for (std::size_t w = 0; w < world; ++w) {
    calibrators.emplace_back([&, w] {
      try {
        iter_times[w] = workers[w]->MeasureIterationTime(init, calib);
      } catch (...) {
        failures[w] = std::current_exception();
      }
    });
  }
  for (auto& t : calibrators) t.join();
  for (const std::exception_ptr& failure : failures) {
    if (failure) std::rethrow_exception(failure);
  }
  return iter_times;
}

}  // namespace

// Hierarchical synchronization (§4): workers are partitioned into
// speed-homogeneous groups by the recursive ζ>v rule over calibrated
// iteration times, and each group runs RNA internally: the engine gives
// every group its own controller, and each PS-sync round the group's leader
// averages the group model through the parameter server and broadcasts the
// result inside the group (see rna/train/group_engine.hpp). Under
// TrainerConfig::lockstep the grouping comes from the *nominal* delay model
// (no wall-clock race), so the whole run replays bit-identically.
TrainResult RunHierarchicalRna(const TrainerConfig& config,
                               const ModelFactory& factory,
                               const data::Dataset& train_data,
                               const data::Dataset& val_data) {
  auto grouping = [&config](
                      std::span<const std::unique_ptr<WorkerContext>> workers,
                      std::span<const float> init) {
    obs::ScopedTimer calibration_span(obs::RegisterTrack("main"),
                                      obs::Category::kOther, "calibration");
    const std::size_t calib =
        std::max<std::size_t>(1, config.calibration_iters);
    const std::vector<std::size_t> group_of = ComputeSpeedGroups(
        CalibrateIterationTimes(config, workers, init, calib));
    const std::size_t num_groups =
        1 + *std::max_element(group_of.begin(), group_of.end());
    obs::SetGauge("hier.groups", static_cast<double>(num_groups));
    calibration_span.SetArg("groups", static_cast<double>(num_groups));
    calibration_span.SetArg("iters", static_cast<double>(calib));
    return group_of;
  };
  const std::size_t choices = config.probe_choices;
  return RunPartialCollective(
      config, factory, train_data, val_data,
      [choices] { return MakeProbePolicy(choices); }, grouping);
}

}  // namespace rna::core::detail
