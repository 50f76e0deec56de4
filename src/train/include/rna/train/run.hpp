#pragma once

// The scaffold of one training run, which Horovod, AD-PSGD and the RNA
// engine build instead of copying it. It owns what the runners share and
// fixes its order: construction builds the deadlines, the FaultRuntime,
// one WorkerContext per rank, the initial parameters (rank 0's fresh
// replica) and the monitor; OpenFabric opens the fabric once the runner
// knows its endpoint count (for rna-h, after calibration); Start starts the
// monitor thread, then the `train_total` clock; Finish, after every runner
// thread joined, stops both, picks the result model and runs the
// end-of-run evaluation (`final_eval`).

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "rna/collectives/options.hpp"
#include "rna/data/dataset.hpp"
#include "rna/obs/trace.hpp"
#include "rna/train/fault.hpp"
#include "rna/train/monitor.hpp"
#include "rna/train/worker.hpp"

namespace rna::train {

/// How Finish() turns the result ranks' parameters into the run's model.
/// The result ranks are the live ranks, or every rank if none is left.
enum class FinalModel {
  kFirst,    ///< the first result rank's replica
  kAverage,  ///< the mean of the result ranks' replicas (AD-PSGD)
};

class Run {
 public:
  Run(const TrainerConfig& config, const ModelFactory& factory,
      const data::Dataset& train_data, const data::Dataset& val_data);

  const TrainerConfig& Config() const { return config_; }
  /// The bounds of every protocol wait (DeadlinesFor).
  const Deadlines& Waits() const { return deadlines_; }
  FaultRuntime& Faults() { return faults_; }
  std::span<const std::unique_ptr<WorkerContext>> Workers() const {
    return workers_;
  }
  WorkerContext& Worker(std::size_t rank) { return *workers_[rank]; }
  std::size_t Dim() const { return init_.size(); }
  const std::vector<float>& Init() const { return init_; }

  /// Opens the run's fabric with `endpoints` endpoints and installs the
  /// config's fault plan on it. Called once, before Start().
  net::Fabric& OpenFabric(std::size_t endpoints);

  /// Starts the monitor watching `board`, then the `train_total` clock.
  void Start(const ParamBoard& board);

  /// Starts body(i) on a thread of its own for each i < n, in order.
  template <class Body>
  std::vector<std::thread> Spawn(std::size_t n, const Body& body) {
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (std::size_t i = 0; i < n; ++i) threads.emplace_back(body, i);
    return threads;
  }

  /// The monitor's stop signal (target loss or patience).
  bool Stopped() const { return stop_.load(); }
  /// The run's counters; the monitor annotates its curve with the rounds.
  void CountRound() { rounds_.fetch_add(1); }
  void CountGradients(std::size_t n) { gradients_.fetch_add(n); }

  /// Applies the step LR schedule to `rank`'s optimizer: every worker
  /// decays at the same round.
  void StepLrSchedule(std::size_t rank, std::size_t round);

  /// The config's schedule and hop deadline. The caller sets the tags and
  /// anything specific to its collective.
  collectives::CollectiveOptions CollectiveOptionsFor() const;

  /// Ends the run once every runner thread has joined, given each rank's
  /// final parameters. Fills the fields every protocol reports; the rest
  /// (contributors, drops, controller tallies) is the runner's.
  TrainResult Finish(std::vector<std::vector<float>> params_by_rank,
                     FinalModel model);

 private:
  const TrainerConfig& config_;
  const data::Dataset& train_data_;
  const Deadlines deadlines_;
  FaultRuntime faults_;
  std::vector<std::unique_ptr<WorkerContext>> workers_;
  std::vector<float> init_;
  EvalMonitor monitor_;
  std::unique_ptr<net::Fabric> fabric_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> rounds_{0};
  std::atomic<std::size_t> gradients_{0};
  std::optional<obs::ScopedTimer> clock_;  ///< `train_total`, from Start()
};

}  // namespace rna::train
