#include <atomic>
#include <cmath>
#include <thread>

#include "rna/baselines/baselines.hpp"
#include "rna/common/check.hpp"
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

namespace {

constexpr int kTagPush = 450;  // PushSum (x/2, w/2) message (+ parity)

/// Time-varying one-out-degree exponential graph: at iteration t, node r
/// sends to (r + 2^{t mod (⌊log2(P−1)⌋+1)}) mod P — a permutation at every
/// step, so each node also receives exactly one push per iteration, and an
/// update propagates to all P nodes in O(log P) steps.
std::size_t OutNeighbor(std::size_t rank, std::size_t iteration,
                        std::size_t world) {
  std::size_t log_p = 0;
  while ((std::size_t{1} << (log_p + 1)) < world) ++log_p;
  std::size_t hop = std::size_t{1} << (iteration % (log_p + 1));
  hop %= world;
  if (hop == 0) hop = 1;
  return (rank + hop) % world;
}

}  // namespace

TrainResult RunSgp(const TrainerConfig& config, const ModelFactory& factory,
                   const data::Dataset& train_data,
                   const data::Dataset& val_data) {
  const std::size_t world = config.world;
  RNA_CHECK_MSG(world >= 2, "SGP needs at least two workers");
  net::Fabric fabric(world);

  // Like Horovod, SGP's fixed one-push-one-receive schedule cannot lose a
  // member (Validate rejects crash and drop faults); hang/flaky/delay
  // faults just stall the hop graph.
  FaultRuntime faults(config);
  if (auto plan = BuildFaultPlan(config)) {
    fabric.InstallFaultPlan(std::move(plan));
  }
  const bool lockstep = config.lockstep;

  auto workers = MakeWorkers(config, factory, train_data);
  const std::size_t dim = workers[0]->Dim();
  const std::vector<float> init = InitialParams(config, factory);

  ParamBoard board(init);
  std::atomic<bool> stop{false};
  std::atomic<bool> draining{false};  // a worker has left the lockstep
  std::atomic<std::size_t> rounds_done{0};
  std::atomic<std::size_t> gradients{0};

  EvalMonitor monitor(config, factory, val_data);
  monitor.Start(board, stop, rounds_done);

  std::vector<WorkerTimeBreakdown> wait_comm(world);
  std::vector<std::vector<float>> final_debiased(world);
  obs::ScopedTimer wall_timer(obs::RegisterTrack("main"),
                              obs::Category::kOther, "train_total");

  std::vector<std::thread> threads;
  threads.reserve(world);
  for (std::size_t w = 0; w < world; ++w) {
    threads.emplace_back([&, w] {
      const obs::TrackHandle track =
          obs::RegisterTrack(obs::WorkerTrack(w, "gossip"));
      // PushSum state: biased model x and weight ω; the de-biased model is
      // z = x/ω. Iterations are lock-step: exactly one send and one receive
      // per step (the hop graph is a permutation). Unlike the collective
      // protocols there is no global view, so shutdown is handled by timed
      // receives: once `stop` (or `draining`) is raised, a worker blocked
      // on a push that will never come exits cleanly.
      std::vector<float> x = init;
      double omega = 1.0;
      std::vector<float> z(dim);
      std::vector<float> grad(dim);
      const auto lr = static_cast<float>(config.sgd.learning_rate);

      for (std::size_t iter = 0; iter < config.max_rounds; ++iter) {
        // Under lockstep `draining` must not clip the loop: the first worker
        // to finish its max_rounds iterations would race slower workers out
        // of their final gradient, making gradients_applied (and the x of
        // the clipped worker's out-neighbor) schedule-dependent. With every
        // worker running the full count, the per-iteration permutation
        // matches every push to exactly one receive, so nobody blocks.
        // The receive poll below still honors draining, which is what
        // unblocks workers when `stop` cuts a run short mid-wave.
        if (stop.load() || (!lockstep && draining.load())) break;

        // Gradient at the de-biased point, applied to the biased model
        // scaled by ω (so the de-biased step is plain SGD).
        // Hang/flaky sleeps only; kCrash is unreachable here (Validate).
        (void)faults.BeforeIteration(w, workers[w]->Iterations());
        const auto inv_omega = static_cast<float>(1.0 / omega);
        for (std::size_t i = 0; i < dim; ++i) z[i] = x[i] * inv_omega;
        workers[w]->ComputeGradient(z, grad);
        const auto scaled_lr = lr * static_cast<float>(omega);
        for (std::size_t i = 0; i < dim; ++i) x[i] -= scaled_lr * grad[i];
        gradients.fetch_add(1);

        // Push half of (x, ω) to the out-neighbor; keep the other half.
        const std::size_t peer = OutNeighbor(w, iter, world);
        // Parity tags pair a receive with *any* same-parity push in arrival
        // order (wall-clock dependent). Lockstep uses iteration-unique tags
        // so each receive pairs with exactly its in-neighbor's iteration-t
        // push — the schedule becomes a deterministic wave. SGP's fabric
        // carries only push traffic, so the open-ended tag range is safe.
        const int push_tag =
            lockstep ? kTagPush + static_cast<int>(iter)
                     : kTagPush + static_cast<int>(iter % 2);
        net::Message push;
        push.tag = push_tag;
        push.meta = {static_cast<std::int64_t>(iter)};
        push.data.resize(dim + 1);
        for (std::size_t i = 0; i < dim; ++i) {
          x[i] *= 0.5f;
          push.data[i] = x[i];
        }
        omega *= 0.5;
        push.data[dim] = static_cast<float>(omega);
        obs::ScopedTimer comm_timer(track, obs::Category::kComm,
                                    "push_recv", &wait_comm[w].comm);
        comm_timer.SetArg("iter", static_cast<double>(iter));
        fabric.Send(w, peer, std::move(push));

        std::optional<net::Message> in;
        for (;;) {
          in = fabric.RecvFor(w, push_tag, 0.005);
          if (in.has_value()) break;
          if (stop.load() || draining.load()) break;
        }
        comm_timer.Stop();
        if (!in.has_value()) break;  // shutting down mid-step
        RNA_CHECK(in->data.size() == dim + 1);
        for (std::size_t i = 0; i < dim; ++i) x[i] += in->data[i];
        omega += static_cast<double>(in->data[dim]);

        if (w == 0) {
          const auto inv = static_cast<float>(1.0 / omega);
          std::vector<float> debiased(dim);
          for (std::size_t i = 0; i < dim; ++i) debiased[i] = x[i] * inv;
          board.Publish(debiased, static_cast<std::int64_t>(iter) + 1);
          rounds_done.fetch_add(1);
        }
      }
      draining.store(true);  // release peers blocked on a push from us
      const auto inv = static_cast<float>(1.0 / omega);
      final_debiased[w].resize(dim);
      for (std::size_t i = 0; i < dim; ++i) final_debiased[w][i] = x[i] * inv;
    });
  }
  for (auto& t : threads) t.join();
  const common::Seconds wall_s = wall_timer.Stop();
  monitor.Finish();

  TrainResult result;
  result.rounds = rounds_done.load();
  result.gradients_applied = gradients.load();
  result.live_workers = faults.LiveCount();
  FinishRun(result, wall_s, monitor, workers, wait_comm,
            std::move(final_debiased[0]), train_data);
  return result;
}

}  // namespace rna::baselines
