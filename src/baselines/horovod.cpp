#include <algorithm>
#include <thread>

#include "rna/baselines/baselines.hpp"
#include "rna/collectives/allreduce.hpp"
#include "rna/common/simd.hpp"
#include "rna/obs/trace.hpp"
#include "rna/train/run.hpp"
#include "rna/train/tags.hpp"

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
  // BSP cannot lose a member (Validate rejects crash and drop faults for
  // Horovod), but hang/flaky schedules and delay faults apply: a straggling
  // worker simply stalls the barrier, which is exactly the pathology the
  // paper measures against.
  Run run(config, factory, train_data, val_data);
  const std::size_t world = config.world;
  const std::size_t dim = run.Dim();
  net::Fabric& fabric = run.OpenFabric(world);
  const collectives::Group group = collectives::Group::Full(world);
  // A worker whose barrier or ring misses its deadline abandons the run
  // (its peers' own deadlines release them too).
  const common::Seconds hop_timeout = run.Waits().hop;

  ParamBoard board(run.Init());
  run.Start(board);

  std::vector<std::vector<float>> final_params(world);
  std::vector<std::thread> threads = run.Spawn(world, [&](std::size_t w) {
    const obs::TrackHandle track =
        obs::RegisterTrack(obs::WorkerTrack(w, "sync"));
    WorkerContext& worker = run.Worker(w);
    // The model lives in the replica, which starts at the run's initial
    // parameters; every step computes at it and the optimizer steps it.
    const std::span<float> params = worker.Net().ParamsFlat();
    const std::span<const float> grad = worker.Net().GradsFlat();
    // Gradient ‖ stop vote: the votes sum to a small integer, exact in
    // fp32 and identical on every worker, so the collective exit is
    // unanimous.
    std::vector<float> buffer(dim + 1);
    collectives::CollectiveOptions opts = run.CollectiveOptionsFor();

    for (std::size_t round = 0; round < config.max_rounds; ++round) {
      run.StepLrSchedule(w, round);
      // Hang/flaky sleeps only; kCrash is unreachable here (Validate).
      (void)run.Faults().BeforeIteration(w, worker.Iterations());
      worker.ComputeGradient();
      std::copy(grad.begin(), grad.end(), buffer.begin());
      buffer[dim] = run.Stopped() ? 1.0f : 0.0f;

      // NEGOTIATE_ALLREDUCE: nobody enters the collective until every
      // worker has announced its tensors — the BSP barrier whose cost
      // Figure 1 decomposes.
      {
        obs::ScopedTimer wait_timer(track, obs::Category::kWait, "barrier",
                                    &worker.Times().wait);
        wait_timer.SetArg("round", static_cast<double>(round));
        // The whole-barrier deadline must cover world − 1 straggling
        // arrivals at the leader, not just one hop.
        if (!collectives::BarrierFor(
                fabric, group, w, tags::BarrierTag(round),
                hop_timeout * static_cast<double>(world))) {
          break;
        }
      }
      {
        obs::ScopedTimer comm_timer(track, obs::Category::kComm,
                                    "allreduce", &worker.Times().comm);
        comm_timer.SetArg("round", static_cast<double>(round));
        opts.tag_base = tags::RingTag(round);
        if (!collectives::AllreduceFor({fabric, group, w}, opts, buffer)) {
          break;
        }
      }

      const float inv_world = 1.0f / static_cast<float>(world);
      common::simd::ScaleInto(std::span<float>(buffer.data(), dim), inv_world);
      worker.Optimizer().Step(params,
                              std::span<const float>(buffer.data(), dim));

      if (w == 0) {
        board.Publish(params, static_cast<std::int64_t>(round) + 1);
        run.CountRound();
        run.CountGradients(world);
      }
      if (buffer[dim] > 0.5f) break;  // unanimous, collective exit
    }
    final_params[w].assign(params.begin(), params.end());
  });
  for (auto& t : threads) t.join();

  TrainResult result = run.Finish(std::move(final_params), FinalModel::kFirst);
  result.round_contributors.assign(result.rounds, world);  // BSP: everyone
  return result;
}

}  // namespace rna::baselines
