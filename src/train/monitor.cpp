#include "rna/train/monitor.hpp"

#include <limits>

#include "rna/common/check.hpp"
#include "rna/obs/metrics.hpp"
#include "rna/obs/trace.hpp"
#include "rna/train/worker.hpp"

namespace rna::train {

EvalMonitor::EvalMonitor(const TrainerConfig& config,
                         const ModelFactory& factory,
                         const data::Dataset& val_data)
    : config_(config),
      net_(factory(config.model_seed)),
      val_(data::ShardView::All(val_data)),
      rng_(config.seed + 5000) {}

EvalMonitor::~EvalMonitor() { Finish(); }

void EvalMonitor::Start(const ParamBoard& board, std::atomic<bool>& stop,
                        const std::atomic<std::size_t>& rounds_done) {
  RNA_CHECK_MSG(!thread_.joinable(), "monitor already started");
  board_ = &board;
  stop_ = &stop;
  rounds_ = &rounds_done;
  {
    common::MutexLock lock(mu_);
    finished_ = false;
  }
  thread_ = std::thread([this] { Loop(); });
}

void EvalMonitor::Finish() {
  if (!thread_.joinable()) return;
  {
    common::MutexLock lock(mu_);
    finished_ = true;
  }
  cv_.NotifyAll();
  thread_.join();
}

// Waits out one eval period; returns false as soon as Finish() is called.
bool EvalMonitor::WaitPeriod() {
  const auto deadline =
      common::SteadyClock::now() + common::FromSeconds(config_.eval_period_s);
  common::MutexLock lock(mu_);
  while (!finished_) {
    if (cv_.WaitUntil(mu_, deadline) == std::cv_status::timeout) break;
  }
  return !finished_;
}

nn::BatchResult EvalMonitor::EvalSubsample(std::span<const float> params) {
  net_->SetParamsFrom(params);
  const std::size_t n = std::min(config_.eval_samples, val_.Size());
  std::vector<std::size_t> indices(n);
  for (auto& i : indices) i = rng_.UniformInt(val_.Size());
  return net_->Evaluate(val_.MakeBatch(indices));
}

nn::BatchResult EvaluateDataset(nn::Network& net, std::span<const float> params,
                                const data::Dataset& dataset,
                                std::size_t max_samples) {
  // A training replica arrives here with its arena pinned to the training
  // batch's high-water; eval slices are far larger, so let the short
  // region grow again for this terminal pass.
  if (net.ArenaEnabled() && net.ComputeArena().ExactMode()) {
    net.ComputeArena().Relax();
  }
  net.SetParamsFrom(params);
  // Evaluate in slices to bound per-batch memory for sequence datasets;
  // slicing goes through a zero-copy view, no scratch index vector.
  const data::ShardView view = data::ShardView::All(dataset);
  nn::BatchResult total;
  const std::size_t limit = max_samples > 0
                                ? std::min(max_samples, dataset.Size())
                                : dataset.Size();
  const std::size_t slice = 512;
  double loss_weighted = 0.0;
  for (std::size_t start = 0; start < limit; start += slice) {
    const std::size_t end = std::min(start + slice, limit);
    nn::BatchResult r = net.Evaluate(view.MakeBatchRange(start, end - start));
    total.correct += r.correct;
    total.total += r.total;
    loss_weighted += r.loss * static_cast<double>(r.total);
  }
  total.loss = total.total ? loss_weighted / static_cast<double>(total.total)
                           : 0.0;
  return total;
}

nn::BatchResult EvalMonitor::FullEval(std::span<const float> params) {
  return EvaluateDataset(*net_, params, val_.Owner());
}

void EvalMonitor::Loop() {
  const obs::TrackHandle track = obs::RegisterTrack("monitor");
  obs::ScopedTimer curve_clock({}, obs::Category::kOther, "monitor_total");
  double best_loss = std::numeric_limits<double>::infinity();
  std::size_t evals_since_best = 0;
  std::int64_t last_version = -1;

  while (WaitPeriod()) {
    std::vector<float> params;
    const std::int64_t version = board_->ReadIfNewer(last_version, &params);
    if (version <= last_version) continue;  // nothing new published yet
    last_version = version;

    obs::ScopedTimer eval_timer(track, obs::Category::kEval, "eval");
    const nn::BatchResult eval = EvalSubsample(params);
    CurvePoint point;
    point.time = curve_clock.Elapsed();
    point.round = rounds_->load();
    point.loss = eval.loss;
    point.accuracy = eval.Accuracy();
    eval_timer.SetArg("round", static_cast<double>(point.round));
    eval_timer.SetArg("loss", point.loss);
    eval_timer.Stop();
    obs::CountMetric("monitor.evals");
    obs::SetGauge("monitor.latest_loss", point.loss);
    curve_.push_back(point);

    if (config_.target_loss > 0.0 && eval.loss <= config_.target_loss) {
      reached_target_ = true;
      stop_->store(true);
      return;
    }
    if (eval.loss < best_loss - 1e-4) {
      best_loss = eval.loss;
      evals_since_best = 0;
    } else if (++evals_since_best >= config_.patience && config_.patience > 0) {
      early_stopped_ = true;
      stop_->store(true);
      return;
    }
  }
}

void FinishRun(TrainResult& result, common::Seconds wall_seconds,
               EvalMonitor& monitor,
               std::span<const std::unique_ptr<WorkerContext>> workers,
               std::span<const WorkerTimeBreakdown> wait_comm,
               std::vector<float> final_params,
               const data::Dataset& train_data) {
  result.wall_seconds = wall_seconds;
  result.reached_target = monitor.ReachedTarget();
  result.early_stopped = monitor.EarlyStopped();
  result.curve = monitor.Curve();
  result.breakdown.resize(workers.size());
  for (std::size_t w = 0; w < workers.size(); ++w) {
    result.breakdown[w] = workers[w]->Times();
    result.breakdown[w].wait = wait_comm[w].wait;
    result.breakdown[w].comm = wait_comm[w].comm;
  }
  result.final_params = std::move(final_params);
  const nn::BatchResult final_eval = monitor.FullEval(result.final_params);
  result.final_loss = final_eval.loss;
  result.final_accuracy = final_eval.Accuracy();
  result.final_train_loss = EvaluateDataset(workers[0]->Net(),
                                            result.final_params, train_data,
                                            2048)
                                .loss;
}

}  // namespace rna::train
