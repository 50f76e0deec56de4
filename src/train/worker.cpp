#include "rna/train/worker.hpp"

#include <utility>

#include "rna/common/check.hpp"

namespace rna::train {

WorkerContext::WorkerContext(std::size_t rank, const TrainerConfig& config,
                             const ModelFactory& factory,
                             const data::Dataset& train_data)
    : rank_(rank),
      net_(factory(config.model_seed)),
      shard_(data::ShardView::Strided(train_data, rank, config.world)),
      generator_(shard_,
                 data::BatchGeneratorOptions{
                     .batch_size = config.batch_size,
                     .seed = config.seed + 1000 + 31 * rank,
                     .mode = config.sampling,
                 }),
      optimizer_(net_->ParamCount(), config.sgd),
      delay_model_(config.delay_model.get()),
      delay_scale_(config.delay_scale),
      sleep_per_step_(config.sleep_per_step),
      delay_rng_(config.seed + 2000 + 97 * rank) {}

void WorkerContext::PinArenaCapacity() {
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
  net_->ForwardBackward(batch);
  net_->ComputeArena().ReserveExact();
}

WorkerContext::DrawnBatch WorkerContext::RunBatch(
    std::size_t iteration, std::optional<obs::ScopedTimer>* span) {
  // Take the batch *before* opening the compute span: steady-state batch
  // assembly happens on the generator's prefetch thread, and whatever pop
  // latency remains is hand-off, not compute.
  nn::Batch batch = generator_.Next();
  if (span != nullptr) {
    span->emplace(track_, obs::Category::kCompute, "batch", &times_.compute);
    (*span)->SetArg("iter", static_cast<double>(iteration));
  }
  DrawnBatch drawn{.result = net_->ForwardBackward(batch), .delay = 0.0};
  if (delay_model_ != nullptr) {
    drawn.delay =
        delay_model_->Sample(rank_, iteration, delay_rng_) * delay_scale_;
  }
  if (sleep_per_step_ > 0.0) {
    for (const auto& seq : batch.sequences) {
      drawn.delay += sleep_per_step_ * static_cast<double>(seq.Rows());
    }
  }
  return drawn;
}

nn::BatchResult WorkerContext::ComputeGradient() {
  // The warm-up happens before the first batch of whichever protocol runs;
  // the pin must not count toward compute stats or the trace.
  PinArenaCapacity();
  if (!track_registered_ && obs::ActiveTrace() != nullptr) {
    track_ = obs::RegisterTrack(obs::WorkerTrack(rank_, "compute"));
    track_registered_ = true;
  }
  std::optional<obs::ScopedTimer> span;
  DrawnBatch drawn = RunBatch(times_.iterations, &span);
  span->SetArg("delay_s", drawn.delay);
  common::SleepFor(drawn.delay);  // straggler injection models real time
  ++times_.iterations;
  return std::move(drawn.result);
}

common::Seconds WorkerContext::MeasureIterationTime(std::size_t iters) {
  RNA_CHECK(iters > 0);
  // Pin outside the measured batches: the warm-up batch is each rank's own
  // worst case (batch_size copies of its longest sequence), so charging it
  // would bias ranks unequally and could move the ζ>v grouping.
  PinArenaCapacity();
  // Thread CPU time does not grow while the thread is preempted, and the
  // drawn delay is known without sleeping it, so host load cannot split
  // equal ranks. Training starts again from these iterations, with the
  // delay rng past these draws.
  common::Seconds cpu = 0.0, delays = 0.0;
  for (std::size_t i = 0; i < iters; ++i) {
    const common::ScopedCpuAccumulator charge(&cpu);
    delays += RunBatch(times_.iterations + i, nullptr).delay;
  }
  return (cpu + delays) / static_cast<double>(iters);
}

}  // namespace rna::train
