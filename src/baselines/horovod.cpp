#include <atomic>
#include <thread>

#include "rna/baselines/baselines.hpp"
#include "rna/collectives/allreduce.hpp"
#include "rna/common/check.hpp"
#include "rna/common/simd.hpp"
#include "rna/net/fabric.hpp"
#include "rna/net/fault.hpp"
#include "rna/obs/trace.hpp"
#include "rna/train/fault.hpp"
#include "rna/train/monitor.hpp"
#include "rna/train/stage.hpp"
#include "rna/train/tags.hpp"
#include "rna/train/worker.hpp"

namespace rna::baselines {

using namespace rna::train;

// Horovod-style BSP: each round is
//   compute → negotiation barrier (all workers announce readiness)
//           → blocking ring allreduce → identical optimizer step.
// The stop decision must be collective (a worker leaving the ring alone
// would deadlock it), so each worker contributes a stop vote as one extra
// element of the allreduce payload; everyone observes the same vote sum and
// exits the same round.
TrainResult RunHorovod(const TrainerConfig& config, const ModelFactory& factory,
                       const data::Dataset& train_data,
                       const data::Dataset& val_data) {
  const std::size_t world = config.world;
  net::Fabric fabric(world);
  const collectives::Group group = collectives::Group::Full(world);

  // BSP cannot lose a member (Validate rejects crash and drop faults for
  // Horovod), but hang/flaky schedules and delay faults apply: a straggling
  // worker simply stalls the barrier, which is exactly the pathology the
  // paper measures against.
  FaultRuntime faults(config);
  if (auto plan = BuildFaultPlan(config)) {
    fabric.InstallFaultPlan(std::move(plan));
  }
  // A worker whose barrier or ring misses its deadline abandons the run
  // (its peers' own deadlines release them too).
  const common::Seconds hop_timeout = DeadlinesFor(config).hop;

  auto workers = MakeWorkers(config, factory, train_data);
  const std::size_t dim = workers[0]->Dim();
  const std::vector<float> init = InitialParams(config, factory);

  ParamBoard board(init);
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> rounds_done{0};
  std::atomic<std::size_t> gradients{0};

  EvalMonitor monitor(config, factory, val_data);
  monitor.Start(board, stop, rounds_done);

  std::vector<WorkerTimeBreakdown> wait_comm(world);
  std::vector<std::vector<float>> final_params(world);
  obs::ScopedTimer wall_timer(obs::RegisterTrack("main"),
                              obs::Category::kOther, "train_total");

  std::vector<std::thread> threads;
  threads.reserve(world);
  for (std::size_t w = 0; w < world; ++w) {
    threads.emplace_back([&, w] {
      const obs::TrackHandle track =
          obs::RegisterTrack(obs::WorkerTrack(w, "sync"));
      std::vector<float> params = init;
      std::vector<float> buffer(dim + 1);  // gradient ‖ stop vote
      nn::SgdMomentum& optimizer = workers[w]->Optimizer();
      // Per-worker error-feedback residual for lossy compression. The stop
      // vote rides in the exact tail, so it is never quantized: the vote
      // sum stays bitwise-identical on every worker and the collective
      // exit stays unanimous.
      collectives::ErrorFeedback feedback;
      feedback.EnsureSize(dim + 1);
      collectives::CollectiveOptions opts;
      opts.schedule = config.schedule;
      opts.compression = config.compression;
      opts.topk_fraction = config.topk_fraction;
      opts.hop_timeout = hop_timeout;
      opts.feedback = &feedback;
      opts.exact_tail = 1;

      for (std::size_t round = 0; round < config.max_rounds; ++round) {
        for (std::size_t milestone : config.lr_decay_rounds) {
          if (milestone == round) {
            optimizer.DecayLearningRate(config.lr_decay_factor);
          }
        }
        // Hang/flaky sleeps only; kCrash is unreachable here (Validate).
        (void)faults.BeforeIteration(w, workers[w]->Iterations());
        workers[w]->ComputeGradient(params,
                                    std::span<float>(buffer.data(), dim));
        buffer[dim] = stop.load() ? 1.0f : 0.0f;

        // NEGOTIATE_ALLREDUCE: nobody enters the collective until every
        // worker has announced its tensors — the BSP barrier whose cost
        // Figure 1 decomposes.
        {
          obs::ScopedTimer wait_timer(track, obs::Category::kWait, "barrier",
                                      &wait_comm[w].wait);
          wait_timer.SetArg("round", static_cast<double>(round));
          // The whole-barrier deadline must cover world − 1 straggling
          // arrivals at the leader, not just one hop.
          if (!collectives::BarrierFor(
                  fabric, group, w, tags::BarrierTag(round),
                  hop_timeout * static_cast<double>(world))) {
            break;
          }
        }
        bool ring_ok;
        {
          obs::ScopedTimer comm_timer(track, obs::Category::kComm,
                                      "allreduce", &wait_comm[w].comm);
          comm_timer.SetArg("round", static_cast<double>(round));
          opts.tag_base = tags::RingTag(round);
          ring_ok = collectives::AllreduceFor({fabric, group, w}, opts, buffer);
        }
        if (!ring_ok) break;

        const float inv_world = 1.0f / static_cast<float>(world);
        common::simd::ScaleInto(std::span<float>(buffer.data(), dim),
                                inv_world);
        optimizer.Step(params, std::span<const float>(buffer.data(), dim));

        if (w == 0) {
          board.Publish(params, static_cast<std::int64_t>(round) + 1);
          rounds_done.fetch_add(1);
          gradients.fetch_add(world);
        }
        if (buffer[dim] > 0.5f) break;  // unanimous, collective exit
      }
      final_params[w] = std::move(params);
    });
  }
  for (auto& t : threads) t.join();
  const common::Seconds wall_s = wall_timer.Stop();
  monitor.Finish();

  TrainResult result;
  result.rounds = rounds_done.load();
  result.gradients_applied = gradients.load();
  result.round_contributors.assign(result.rounds, world);  // BSP: everyone
  result.live_workers = faults.LiveCount();
  FinishRun(result, wall_s, monitor, workers, wait_comm,
            std::move(final_params[0]), train_data);
  return result;
}

}  // namespace rna::baselines
