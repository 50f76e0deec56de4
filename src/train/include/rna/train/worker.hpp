#pragma once

// Per-worker training state shared by every protocol implementation: the
// model replica, the zero-copy data shard view and its streaming batch
// generator, the optimizer, and the straggler-injection machinery
// (per-iteration sleeps drawn from a sim::IterationTimeModel, the same
// technique the paper uses to emulate heterogeneity on its physical
// cluster).

#include <memory>
#include <optional>

#include "rna/common/clock.hpp"
#include "rna/common/rng.hpp"
#include "rna/data/batch_generator.hpp"
#include "rna/data/dataset.hpp"
#include "rna/data/shard_view.hpp"
#include "rna/nn/optimizer.hpp"
#include "rna/obs/trace.hpp"
#include "rna/train/config.hpp"
#include "rna/train/metrics.hpp"

namespace rna::train {

class WorkerContext {
 public:
  WorkerContext(std::size_t rank, const TrainerConfig& config,
                const ModelFactory& factory, const data::Dataset& train_data);

  std::size_t Rank() const { return rank_; }
  std::size_t Dim() const { return net_->ParamCount(); }
  nn::Network& Net() { return *net_; }
  nn::SgdMomentum& Optimizer() { return optimizer_; }
  /// The worker's time accounts. ComputeGradient keeps compute and
  /// iterations; the runner's threads time wait and comm into the others.
  WorkerTimeBreakdown& Times() { return times_; }
  /// The worker's batch stream (tests assert steady-state steps consume
  /// prefetched batches and that shard storage is shared, not copied).
  const data::BatchGenerator& Generator() const { return generator_; }
  const data::ShardView& Shard() const { return shard_; }

  /// Runs one mini-batch at the replica's current parameters
  /// (Net().ParamsFlat()): computes loss and gradient, leaving the gradient
  /// in Net().GradsFlat(), and sleeps the injected per-iteration delay.
  /// Updates the compute-time account and the per-worker iteration counter.
  /// When a trace recorder is active, each batch is one kCompute span on
  /// "worker<rank>/compute" (args: iteration index, injected delay) — the
  /// same measurement that feeds the compute account, so breakdown and
  /// trace always agree.
  nn::BatchResult ComputeGradient();

  /// Mini-batches computed so far.
  std::size_t Iterations() const { return times_.iterations; }

  /// The mean iteration time over `iters` batches at the replica's current
  /// parameters, for the hierarchical grouping calibration (§4): each batch
  /// is charged its thread CPU time plus the injected delay it draws, which
  /// is not slept. Only the batch stream, the delay rng and the gradient
  /// block advance; no account, iteration or span is recorded. The arena
  /// pin runs before the first measured batch.
  common::Seconds MeasureIterationTime(std::size_t iters);

 private:
  struct DrawnBatch {
    nn::BatchResult result;
    common::Seconds delay;  ///< the batch's injected delay, not yet slept
  };

  /// The part of a batch that training and calibration share: the batch
  /// hand-off, ForwardBackward, and the draw of iteration `iteration`'s
  /// injected delay. When `span` is given, it is opened as the batch's
  /// kCompute span right after the hand-off; the caller closes it.
  DrawnBatch RunBatch(std::size_t iteration,
                      std::optional<obs::ScopedTimer>* span);

  /// Runs one worst-case batch through the replica and pins the compute
  /// arena's short region at the observed high-water (Arena::ReserveExact).
  /// Runs once, lazily, before the first real or calibration batch; later
  /// calls, and every call when the model does not use an arena, are
  /// no-ops.
  void PinArenaCapacity();

  std::size_t rank_;
  std::unique_ptr<nn::Network> net_;
  // Zero-copy view into the run's shared dataset (no per-worker replica)
  // and the streaming generator that pre-assembles its batches.
  data::ShardView shard_;
  data::BatchGenerator generator_;
  nn::SgdMomentum optimizer_;
  const sim::IterationTimeModel* delay_model_;
  double delay_scale_;
  double sleep_per_step_;
  common::Rng delay_rng_;
  WorkerTimeBreakdown times_;
  // Lazily registered on the first traced batch (the compute thread owns
  // the track); calibration batches record no span, so figures only see
  // training compute.
  obs::TrackHandle track_;
  bool track_registered_ = false;
  bool arena_pinned_ = false;
};

}  // namespace rna::train
