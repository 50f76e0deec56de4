#pragma once

// Public API of RNA — Randomized Non-blocking AllReduce (the paper's
// contribution). There is one front door:
//
//   RunTraining       — validates the config and dispatches to the protocol
//                       it names (RNA variants + the baselines). Throws
//                       std::invalid_argument with the TrainerConfig::
//                       Validate() message for unrunnable configs.
//
// plus two thin conveniences that pin the protocol field and forward:
//
//   RunRna            — flat RNA: power-of-q-choices initiator election +
//                       partial non-blocking ring allreduce (§3).
//   RunHierarchicalRna— RNA inside speed-homogeneous groups, asynchronous
//                       parameter-server averaging across groups (§4).
//
// and the reusable building blocks:
//
//   MakeProbePolicy   — the power-of-q-choices trigger, reusable with the
//                       generic partial-collective engine.
//   ComputeSpeedGroups— the recursive ζ>v grouping rule of §4.
//
// Observability: when an rna::obs::Session (or SetActiveTrace /
// SetActiveMetrics) is installed, every runner dispatched through
// RunTraining records per-thread spans (compute / wait / comm / round
// lifecycle) and named metrics; with nothing installed the instrumentation
// is a no-op. See rna/obs/session.hpp.

#include <memory>
#include <vector>

#include "rna/data/dataset.hpp"
#include "rna/train/config.hpp"
#include "rna/train/metrics.hpp"
#include "rna/train/group_engine.hpp"

namespace rna::core {

/// Power-of-q-choices initiator election (§3.2): at the start of every
/// round the controller samples `choices` distinct workers; the collective
/// fires as soon as any of them has a gradient ready. choices=1 degenerates
/// to purely random initiator selection; choices=2 is the paper's setting.
std::unique_ptr<train::TriggerPolicy> MakeProbePolicy(std::size_t choices);

/// Recursive speed grouping (§4): given per-worker mean iteration times,
/// tests ζ > v (ζ = slowest − fastest, v = mean). If the test fails the set
/// is one group; otherwise workers are split into faster/slower halves
/// around the mean and each half is partitioned recursively. Returns a
/// contiguous group id per worker.
std::vector<std::size_t> ComputeSpeedGroups(const std::vector<double>& times);

/// The single entry point: validates `config` (throws std::invalid_argument
/// with the Validate() message when it is unrunnable) and runs the protocol
/// selected by config.protocol.
train::TrainResult RunTraining(const train::TrainerConfig& config,
                               const train::ModelFactory& factory,
                               const data::Dataset& train_data,
                               const data::Dataset& val_data);

/// Convenience: RunTraining with config.protocol pinned to kRna.
inline train::TrainResult RunRna(const train::TrainerConfig& config,
                                 const train::ModelFactory& factory,
                                 const data::Dataset& train_data,
                                 const data::Dataset& val_data) {
  train::TrainerConfig pinned = config;
  pinned.protocol = train::Protocol::kRna;
  return RunTraining(pinned, factory, train_data, val_data);
}

/// Convenience: RunTraining with config.protocol pinned to kRnaHierarchical.
inline train::TrainResult RunHierarchicalRna(const train::TrainerConfig& config,
                                             const train::ModelFactory& factory,
                                             const data::Dataset& train_data,
                                             const data::Dataset& val_data) {
  train::TrainerConfig pinned = config;
  pinned.protocol = train::Protocol::kRnaHierarchical;
  return RunTraining(pinned, factory, train_data, val_data);
}

}  // namespace rna::core
