#include "rna/train/monitor.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <thread>

#include "rna/common/check.hpp"
#include "rna/obs/metrics.hpp"
#include "rna/obs/trace.hpp"

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

// Every job is cut into slices, and the threads drain one queue of them.
EvalPass EvaluateJobs(std::span<nn::Network* const> replicas,
                      std::span<const float> params,
                      std::span<const EvalJob> jobs) {
  RNA_CHECK_MSG(!replicas.empty(), "evaluation needs a replica");
  struct Slice {
    std::size_t job, start, count;
  };
  std::vector<Slice> slices;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::size_t size = jobs[j].view->Size();
    const std::size_t limit =
        jobs[j].max_samples > 0 ? std::min(jobs[j].max_samples, size) : size;
    for (std::size_t start = 0; start < limit; start += kEvalSliceSamples) {
      slices.push_back({j, start, std::min(kEvalSliceSamples, limit - start)});
    }
  }
  const std::size_t hardware =
      std::max(1u, std::thread::hardware_concurrency());
  const std::size_t threads =
      std::min({replicas.size(), hardware, slices.size()});

  std::vector<nn::BatchResult> per_slice(slices.size());
  std::vector<std::exception_ptr> failures(threads);
  std::atomic<std::size_t> next{0};
  auto drain = [&](std::size_t t) {
    try {
      nn::Network& net = *replicas[t];
      bool loaded = false;
      for (std::size_t s; (s = next.fetch_add(1)) < slices.size();) {
        if (!loaded) {
          // A training replica's arena is pinned to a training batch; a
          // slice may need more, and at most one slice's worth.
          net.ComputeArena().Relax();
          net.SetParamsFrom(params);
          loaded = true;
        }
        const Slice& slice = slices[s];
        per_slice[s] = net.Evaluate(
            jobs[slice.job].view->MakeBatchRange(slice.start, slice.count));
      }
    } catch (...) {
      failures[t] = std::current_exception();
      next.store(slices.size());  // the others stop claiming slices
    }
  };
  std::vector<std::thread> helpers;
  helpers.reserve(threads);
  for (std::size_t t = 1; t < threads; ++t) {
    try {
      helpers.emplace_back(drain, t);
    } catch (...) {
      break;  // a helper that cannot start leaves its slices to the others
    }
  }
  if (threads > 0) drain(0);
  for (std::thread& helper : helpers) helper.join();
  for (const std::exception_ptr& failure : failures) {
    if (failure) std::rethrow_exception(failure);
  }

  // Slice order, whichever thread ran each slice: the sums below are the
  // same bit for bit for any thread count.
  EvalPass pass{std::vector<nn::BatchResult>(jobs.size()),
                threads > 0 ? 1 + helpers.size() : 0, slices.size()};
  for (std::size_t s = 0; s < slices.size(); ++s) {
    nn::BatchResult& total = pass.results[slices[s].job];
    total.correct += per_slice[s].correct;
    total.total += per_slice[s].total;
    total.loss += per_slice[s].loss * static_cast<double>(per_slice[s].total);
  }
  for (nn::BatchResult& total : pass.results) {
    if (total.total > 0) total.loss /= static_cast<double>(total.total);
  }
  return pass;
}

nn::BatchResult EvaluateDataset(std::span<nn::Network* const> replicas,
                                std::span<const float> params,
                                const data::Dataset& dataset,
                                std::size_t max_samples) {
  const data::ShardView view = data::ShardView::All(dataset);
  const EvalJob job{&view, max_samples};
  return EvaluateJobs(replicas, params, {&job, 1}).results[0];
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

}  // namespace rna::train
