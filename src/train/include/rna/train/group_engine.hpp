#pragma once

// The RNA engine: one group runtime behind flat RNA, eager-SGD and
// hierarchical RNA (§3 and §4 of the paper, generalized).
//
//   * every worker runs a compute thread and a communication thread
//     (cross-iteration training, Figure 4);
//   * compute threads run mini-batches back-to-back against the newest
//     parameters their group published, buffering gradients in a
//     GradientStage and notifying their group's controller
//     ("instantaneous progress information", §3);
//   * each group's controller decides *when to trigger* a round through a
//     pluggable TriggerPolicy, then sends every member a RoundPlan that
//     forces its communication thread into the partial ring allreduce,
//     ready or not; absent workers contribute null gradients;
//   * the reduced gradient is re-weighted by W = 1/Σw and applied with the
//     Linear-Scaling-Rule learning rate on every member identically, so a
//     group's replicas stay bit-identical.
//
// Flat RNA (the power-of-q-choices election, rna::core) and eager-SGD (the
// majority rule, rna::baselines) run the whole world as one group.
// Hierarchical RNA passes a SpeedGrouping: each speed group then runs RNA
// internally (§4 "each group runs RNA internally"), and group leaders
// average their models through one parameter server and broadcast the
// result inside the group.

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "rna/data/dataset.hpp"
#include "rna/train/config.hpp"
#include "rna/train/metrics.hpp"
#include "rna/train/readiness.hpp"

namespace rna::train {

class WorkerContext;

/// Decides when the controller fires the collective, given how many
/// unreduced gradients each group member currently has buffered.
class TriggerPolicy {
 public:
  virtual ~TriggerPolicy() = default;

  /// Called once at the start of each round (e.g., to sample fresh probes)
  /// with the size of the controller's group.
  virtual void BeginRound(std::size_t /*world*/, common::Rng& /*rng*/) {}

  /// `ready.Count(i)` = buffered-gradient count of the group's i-th member
  /// (as known from notifications); `ready.ReadyRanks()` is the O(1)
  /// ready tally, so a policy decision never scans the group.
  /// Return true to trigger the collective now.
  virtual bool ShouldTrigger(const ReadinessBoard& ready) = 0;
};

using TriggerPolicyFactory = std::function<std::unique_ptr<TriggerPolicy>()>;

/// eager-SGD's rule: fire once ⌊N/2⌋+1 workers have a gradient buffered.
std::unique_ptr<TriggerPolicy> MakeMajorityPolicy();

/// solo collective (eager-SGD's aggressive variant): fire on the first
/// ready worker.
std::unique_ptr<TriggerPolicy> MakeSoloPolicy();

/// Wait for everyone (BSP-like trigger, but still cross-iteration) — used
/// as an ablation.
std::unique_ptr<TriggerPolicy> MakeFullPolicy();

/// Assigns every rank a speed group (dense ids from 0), given the freshly
/// built workers and the initial parameters; hierarchical RNA calibrates
/// iteration times on them.
using SpeedGrouping = std::function<std::vector<std::size_t>(
    std::span<const std::unique_ptr<WorkerContext>> workers,
    std::span<const float> init)>;

/// Runs a full training job under the RNA engine. Without `grouping` the
/// world is one group with no parameter-server layer; with it, every group
/// gets its own controller and one parameter server joins the groups.
TrainResult RunPartialCollective(const TrainerConfig& config,
                                 const ModelFactory& factory,
                                 const data::Dataset& train_data,
                                 const data::Dataset& val_data,
                                 const TriggerPolicyFactory& policy_factory,
                                 const SpeedGrouping& grouping = {});

}  // namespace rna::train
