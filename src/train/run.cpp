#include "rna/train/run.hpp"

#include <numeric>

#include "rna/common/check.hpp"
#include "rna/net/fault.hpp"
#include "rna/tensor/ops.hpp"

namespace rna::train {

Run::Run(const TrainerConfig& config, const ModelFactory& factory,
         const data::Dataset& train_data, const data::Dataset& val_data)
    : config_(config),
      train_data_(train_data),
      deadlines_(DeadlinesFor(config)),
      faults_(config),
      monitor_(config, factory, val_data) {
  RNA_CHECK_MSG(config.world >= 1, "need at least one worker");
  for (std::size_t r = 0; r < config.world; ++r) {
    workers_.push_back(
        std::make_unique<WorkerContext>(r, config, factory, train_data));
  }
  // Every replica starts from config.model_seed, so rank 0's untouched
  // replica holds everyone's initial parameters.
  init_.resize(workers_[0]->Dim());
  workers_[0]->Net().CopyParamsTo(init_);
}

net::Fabric& Run::OpenFabric(std::size_t endpoints) {
  RNA_CHECK_MSG(fabric_ == nullptr, "the run's fabric is already open");
  fabric_ = std::make_unique<net::Fabric>(endpoints);
  if (auto plan = BuildFaultPlan(config_)) {
    fabric_->InstallFaultPlan(std::move(plan));
  }
  return *fabric_;
}

void Run::Start(const ParamBoard& board) {
  monitor_.Start(board, stop_, rounds_);
  clock_.emplace(obs::RegisterTrack("main"), obs::Category::kOther,
                 "train_total");
}

void Run::StepLrSchedule(std::size_t rank, std::size_t round) {
  for (const std::size_t milestone : config_.lr_decay_rounds) {
    if (milestone == round) {
      workers_[rank]->Optimizer().DecayLearningRate(config_.lr_decay_factor);
    }
  }
}

collectives::CollectiveOptions Run::CollectiveOptionsFor(
    collectives::ErrorFeedback& feedback) const {
  // Only a lossy codec reads the residual. Sized once, so the hot loop
  // never reallocates it.
  if (config_.compression != collectives::Compression::kNone) {
    feedback.EnsureSize(Dim() + 1);
  }
  return {.schedule = config_.schedule,
          .compression = config_.compression,
          .topk_fraction = config_.topk_fraction,
          .hop_timeout = deadlines_.hop,
          .feedback = &feedback};
}

TrainResult Run::Finish(std::vector<std::vector<float>> params_by_rank,
                        FinalModel model) {
  RNA_CHECK_MSG(clock_.has_value(), "Finish() before Start()");
  TrainResult result;
  result.wall_seconds = clock_->Stop();
  monitor_.Finish();
  result.reached_target = monitor_.ReachedTarget();
  result.early_stopped = monitor_.EarlyStopped();
  result.curve = monitor_.Curve();
  result.rounds = rounds_.load();
  result.gradients_applied = gradients_.load();
  result.live_workers = faults_.LiveCount();
  for (const auto& w : workers_) result.breakdown.push_back(w->Times());

  // A crashed rank's replica froze at its death, so the result comes from
  // the live ranks; if none is left, from every rank.
  std::vector<std::size_t> ranks;
  for (std::size_t r = 0; r < workers_.size(); ++r) {
    if (faults_.Alive(r)) ranks.push_back(r);
  }
  if (ranks.empty()) {
    ranks.resize(workers_.size());
    std::iota(ranks.begin(), ranks.end(), 0);
  }
  if (model == FinalModel::kFirst) {
    result.final_params = std::move(params_by_rank[ranks[0]]);
  } else {
    result.final_params.assign(Dim(), 0.0f);
    for (const std::size_t r : ranks) {
      tensor::Axpy(1.0f / static_cast<float>(ranks.size()), params_by_rank[r],
                   result.final_params);
    }
  }

  // The final loss and accuracy on the full validation set and the final
  // train loss on the leading training samples, as one slice queue over the
  // now idle replicas: the monitor's first, then each worker's.
  obs::ScopedTimer span(obs::RegisterTrack("main"), obs::Category::kOther,
                        "final_eval");
  std::vector<nn::Network*> replicas{&monitor_.Net()};
  for (const auto& worker : workers_) replicas.push_back(&worker->Net());
  const data::ShardView train = data::ShardView::All(train_data_);
  const EvalJob jobs[] = {{&monitor_.Validation(), 0},
                          {&train, kFinalTrainSamples}};
  const EvalPass pass = EvaluateJobs(replicas, result.final_params, jobs);
  span.SetArg("replicas", static_cast<double>(pass.threads));
  span.SetArg("slices", static_cast<double>(pass.slices));
  result.final_loss = pass.results[0].loss;
  result.final_accuracy = pass.results[0].Accuracy();
  result.final_train_loss = pass.results[1].loss;
  return result;
}

}  // namespace rna::train
