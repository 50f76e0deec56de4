#include "rna/train/worker.hpp"

#include <thread>

#include "rna/common/check.hpp"

namespace rna::train {

WorkerContext::WorkerContext(std::size_t rank, const TrainerConfig& config,
                             const ModelFactory& factory,
                             const data::Dataset& train_data)
    : rank_(rank),
      net_(factory(config.model_seed)),
      dim_(net_->ParamCount()),
      shard_(data::ShardView::Strided(train_data, rank, config.world)),
      generator_(shard_,
                 data::BatchGeneratorOptions{
                     .batch_size = config.batch_size,
                     .seed = config.seed + 1000 + 31 * rank,
                     .mode = config.sampling,
                 }),
      optimizer_(dim_, config.sgd),
      delay_model_(config.delay_model.get()),
      delay_scale_(config.delay_scale),
      sleep_per_step_(config.sleep_per_step),
      sleep_per_step_sq_(config.sleep_per_step_sq),
      delay_rng_(config.seed + 2000 + 97 * rank) {}

common::Seconds WorkerContext::SampleDelay() {
  if (delay_model_ == nullptr) return 0.0;
  return delay_model_->Sample(rank_, times_.iterations, delay_rng_) *
         delay_scale_;
}

void WorkerContext::PinArenaCapacity(std::span<const float> params) {
  if (arena_pinned_) return;
  arena_pinned_ = true;
  if (!net_->ArenaEnabled()) return;
  // Worst-case warm-up batch: batch_size copies of the shard's longest
  // sequence (the largest batch length-bucketed or uniform sampling can
  // ever emit), or the fixed dense batch shape. One ForwardBackward grows
  // the arena's short region to its true high-water mark, after which
  // ReserveExact() pins it — steady-state steps then perform zero chunk
  // allocations, and any regression throws instead of silently growing.
  nn::Batch batch;
  const std::size_t b = generator_.BatchSize();
  if (shard_.IsSequence()) {
    const tensor::Tensor* longest = shard_.LongestSequence();
    if (longest == nullptr) return;
    batch.sequences.assign(b, *longest);
  } else {
    if (shard_.Size() == 0) return;
    batch.inputs = tensor::Tensor({b, shard_.InputDim()});
    batch.inputs.Zero();
  }
  batch.labels.assign(b, 0);
  net_->SetParamsFrom(params);
  net_->ForwardBackward(batch);
  net_->ComputeArena().ReserveExact();
}

nn::BatchResult WorkerContext::ComputeGradient(std::span<const float> params,
                                               std::span<float> grad_out) {
  RNA_CHECK(params.size() == dim_ && grad_out.size() == dim_);
  // The warm-up happens before the first batch of whichever protocol runs;
  // the pin must not count toward compute stats or the trace.
  PinArenaCapacity(params);
  if (record_spans_ && !track_registered_ && obs::ActiveTrace() != nullptr) {
    track_ = obs::RegisterTrack(obs::WorkerTrack(rank_, "compute"));
    track_registered_ = true;
  }
  // Take the batch *before* opening the compute span: steady-state batch
  // assembly happens on the generator's prefetch thread, and whatever pop
  // latency remains is hand-off, not compute.
  nn::Batch batch = generator_.Next();
  obs::ScopedTimer timer(record_spans_ ? track_ : obs::TrackHandle{},
                         obs::Category::kCompute, "batch", &times_.compute);
  timer.SetArg("iter", static_cast<double>(times_.iterations));
  net_->SetParamsFrom(params);
  nn::BatchResult result = net_->ForwardBackward(batch);
  net_->CopyGradsTo(grad_out);

  common::Seconds delay = SampleDelay();
  if (sleep_per_step_ > 0.0 || sleep_per_step_sq_ > 0.0) {
    for (const auto& seq : batch.sequences) {
      const auto steps = static_cast<double>(seq.Rows());
      delay += sleep_per_step_ * steps + sleep_per_step_sq_ * steps * steps;
    }
  }
  timer.SetArg("delay_s", delay);
  common::SleepFor(delay);  // straggler injection models real time passing
  ++times_.iterations;
  return result;
}

common::Seconds WorkerContext::MeasureIterationTime(
    std::span<const float> params, std::size_t iters) {
  RNA_CHECK(iters > 0);
  std::vector<float> scratch(dim_);
  // Pin outside the timed window: the warm-up batch is each rank's own
  // worst case (batch_size copies of its longest sequence), so timing it
  // would bias ranks unequally and could move the ζ>v grouping.
  PinArenaCapacity(params);
  obs::ScopedTimer watch({}, obs::Category::kOther, "calibration");
  const std::size_t before = times_.iterations;
  common::Seconds compute_before = times_.compute;
  // Calibration batches should not count toward training statistics —
  // neither the breakdown accounts (restored below) nor the trace.
  record_spans_ = false;
  for (std::size_t i = 0; i < iters; ++i) {
    ComputeGradient(params, scratch);
  }
  record_spans_ = true;
  const common::Seconds elapsed = watch.Stop();
  times_.iterations = before;
  times_.compute = compute_before;
  return elapsed / static_cast<double>(iters);
}

}  // namespace rna::train
