#pragma once

// The evaluation monitor: runs on its own thread during training, samples
// worker 0's published parameters, evaluates them on a validation
// subsample, records the convergence curve, and raises the stop signal on
// target-loss or early-stopping (Keras-style patience, as in the paper's
// §8.1 EarlyStopping setup). Protocol implementations observe the stop
// signal at safe points (see each protocol's stop protocol).

#include <atomic>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "rna/common/mutex.hpp"
#include "rna/common/thread_annotations.hpp"
#include "rna/data/dataset.hpp"
#include "rna/data/shard_view.hpp"
#include "rna/train/config.hpp"
#include "rna/train/metrics.hpp"
#include "rna/train/stage.hpp"

namespace rna::train {

/// Samples per slice of the end-of-run evaluation. A replica's arena grows
/// to one slice's scratch and no further; 96 is also the monitor's
/// subsample on the benchmark's workloads, and per-sample cost is no
/// higher than in larger slices.
inline constexpr std::size_t kEvalSliceSamples = 96;

/// The final train loss is measured on this many leading training samples.
inline constexpr std::size_t kFinalTrainSamples = 2048;

/// One job of an evaluation pass: the first `max_samples` samples of
/// `view` (all of them when 0).
struct EvalJob {
  const data::ShardView* view = nullptr;
  std::size_t max_samples = 0;
};

/// One result per job, in job order, and the threads and slices it took.
struct EvalPass {
  std::vector<nn::BatchResult> results;
  std::size_t threads = 0;
  std::size_t slices = 0;
};

/// Evaluates `params` on every job, cut into kEvalSliceSamples-sample
/// slices. The calling thread runs replicas[0]; one helper thread per
/// further replica runs that replica, with at most
/// std::thread::hardware_concurrency() threads in all and no more threads
/// than slices. Each thread takes slices from a shared counter. A replica
/// is touched only once its thread has claimed a slice: the thread then
/// leaves the replica's arena exact mode and loads `params`, once. Each
/// result adds up its job's slices in slice order, so it is the same bit for
/// bit whichever replica ran which slice and however many ran. The replicas
/// must be idle copies of one model. A replica's exception is rethrown after
/// every helper thread has been joined.
EvalPass EvaluateJobs(std::span<nn::Network* const> replicas,
                      std::span<const float> params,
                      std::span<const EvalJob> jobs);

/// EvaluateJobs over the first `max_samples` samples of `dataset` (all of
/// them when 0).
nn::BatchResult EvaluateDataset(std::span<nn::Network* const> replicas,
                                std::span<const float> params,
                                const data::Dataset& dataset,
                                std::size_t max_samples = 0);

class EvalMonitor {
 public:
  EvalMonitor(const TrainerConfig& config, const ModelFactory& factory,
              const data::Dataset& val_data);
  ~EvalMonitor();

  EvalMonitor(const EvalMonitor&) = delete;
  EvalMonitor& operator=(const EvalMonitor&) = delete;

  /// Starts the monitor thread watching `board`. `rounds_done` is the
  /// protocol's round counter (for curve annotation); the monitor sets
  /// `stop` when its stopping criteria fire.
  void Start(const ParamBoard& board, std::atomic<bool>& stop,
             const std::atomic<std::size_t>& rounds_done);

  /// Signals the protocol has finished; joins the monitor thread.
  void Finish();

  const std::vector<CurvePoint>& Curve() const { return curve_; }
  bool ReachedTarget() const { return reached_target_; }
  bool EarlyStopped() const { return early_stopped_; }

  /// The monitor's replica and its validation view. The replica is idle
  /// once Finish() has joined the thread; Run::Finish evaluates on it.
  nn::Network& Net() { return *net_; }
  const data::ShardView& Validation() const { return val_; }

 private:
  void Loop();
  bool WaitPeriod();
  nn::BatchResult EvalSubsample(std::span<const float> params);

  TrainerConfig config_;
  std::unique_ptr<nn::Network> net_;
  // Zero-copy view over the validation set; subsample and sliced evals
  // batch through it instead of re-indexing the dataset per call.
  data::ShardView val_;
  common::Rng rng_;

  const ParamBoard* board_ = nullptr;
  std::atomic<bool>* stop_ = nullptr;
  const std::atomic<std::size_t>* rounds_ = nullptr;

  // Finish() raises finished_ under mu_ and notifies cv_, so the monitor
  // thread's between-eval wait is interruptible instead of a plain sleep.
  common::Mutex mu_;
  common::CondVar cv_;
  bool finished_ RNA_GUARDED_BY(mu_) = false;
  std::thread thread_;

  // Written by the monitor thread only; published to the caller by the
  // thread join inside Finish().
  std::vector<CurvePoint> curve_;
  bool reached_target_ = false;
  bool early_stopped_ = false;
};

}  // namespace rna::train
