#include <algorithm>
#include <atomic>
#include <thread>

#include "rna/baselines/baselines.hpp"
#include "rna/common/check.hpp"
#include "rna/common/mutex.hpp"
#include "rna/obs/metrics.hpp"
#include "rna/obs/trace.hpp"
#include "rna/train/run.hpp"
#include "rna/train/tags.hpp"

namespace rna::baselines {

using namespace rna::train;

// AD-PSGD (Lian et al.): every worker loops independently —
//   x ← model; g ← ∇f(x; ξ)                       (compute)
//   atomically average own model with one random peer's (gossip)
//   x ← averaged − γ·g                            (local update)
// The pairwise average is made atomic by the passive side: a responder
// thread folds the requester's parameters into its own under the model
// lock and replies with the averaged vector, so both sides end the
// exchange with identical models. The requester blocks for the reply —
// this serialization is the "significant synchronization overhead to
// ensure atomicity" the paper attributes to AD-PSGD (§1). One-sided
// request/response cannot deadlock: responders never initiate.
TrainResult RunAdPsgd(const TrainerConfig& config, const ModelFactory& factory,
                      const data::Dataset& train_data,
                      const data::Dataset& val_data) {
  const std::size_t world = config.world;
  RNA_CHECK_MSG(world >= 2, "AD-PSGD needs at least two workers");
  Run run(config, factory, train_data, val_data);
  const std::size_t dim = run.Dim();
  net::Fabric& fabric = run.OpenFabric(world);
  FaultRuntime& faults = run.Faults();
  const common::Seconds reply_timeout = run.Waits().hop;
  const bool lockstep = config.lockstep;
  // Serializes iterations (compute + gossip) into rank order under
  // lockstep; crashed or finished ranks retire from the rotation.
  RoundRobinGate gate(world);
  std::atomic<std::size_t> workers_running{world};

  // Each worker's model, guarded by its own mutex (the AD-PSGD atomicity lock).
  std::vector<std::vector<float>> models(world, run.Init());
  std::vector<common::Mutex> model_mu(world);

  ParamBoard board(run.Init());
  run.Start(board);

  // Responder threads: serve pairwise-average requests until every active
  // worker has finished (an active requester is never left hanging).
  std::vector<std::thread> responders = run.Spawn(world, [&](std::size_t w) {
    while (workers_running.load() > 0) {
      // A crashed rank answers no more gossip; requesters discover that
      // through their reply timeout and mark the peer dead.
      if (!faults.Alive(w)) break;
      auto req = fabric.RecvFor(w, tags::kAvgReq, 0.002);
      if (!req.has_value()) continue;
      net::Message reply{.tag = tags::kAvgRep};
      {
        common::MutexLock lock(model_mu[w]);
        RNA_CHECK(req->data.size() == dim);
        auto& mine = models[w];
        for (std::size_t i = 0; i < dim; ++i) {
          mine[i] = 0.5f * (mine[i] + req->data[i]);
        }
        reply.data = mine;
      }
      fabric.Send(w, req->src, std::move(reply));
    }
  });

  std::vector<std::thread> trainers = run.Spawn(world, [&](std::size_t w) {
    const obs::TrackHandle track =
        obs::RegisterTrack(obs::WorkerTrack(w, "gossip"));
    common::Rng rng(config.seed + 7000 + 13 * w);
    // AD-PSGD uses plain SGD on the averaged model; momentum state would
    // not be consistent across gossip exchanges.
    const auto lr = static_cast<float>(config.sgd.learning_rate);

    // Peers this trainer has watched time out (a reply never came); a
    // dead peer is skipped deterministically via the shared FaultRuntime,
    // a silently-lossy one via this local suspicion list.
    std::vector<bool> peer_suspect(world, false);

    WorkerContext& worker = run.Worker(w);
    const std::span<float> local = worker.Net().ParamsFlat();
    const std::span<const float> grad = worker.Net().GradsFlat();
    for (std::size_t iter = 0; iter < config.max_rounds && !run.Stopped();
         ++iter) {
      // A turn covers one peer iteration, hangs included, so no fault
      // recovery timeout applies to it.
      if (lockstep && !gate.AcquireTurnFor(w, common::kLosslessDeadline)) {
        break;
      }
      if (faults.BeforeIteration(w, worker.Iterations()) ==
          IterationFate::kCrash) {
        faults.Kill(w);
        obs::CountMetric("fault.worker.goodbyes");
        break;  // gate.Retire below releases the rotation
      }
      {
        common::MutexLock lock(model_mu[w]);
        std::copy(models[w].begin(), models[w].end(), local.begin());
      }
      worker.ComputeGradient();

      // Gossip: send my current model, receive the pairwise average. The
      // peer is always drawn — even when it will be skipped — so the rng
      // stream (and therefore the replay) is independent of failures.
      std::size_t peer = rng.UniformInt(world - 1);
      if (peer >= w) ++peer;
      bool gossiped = false;
      std::optional<net::Message> rep;
      if (faults.Alive(peer) && !peer_suspect[peer]) {
        // A reply from a timed-out past exchange must not satisfy this one.
        while (fabric.TryRecv(w, tags::kAvgRep).has_value()) {
          obs::CountMetric("fault.gossip_stale_replies");
        }
        net::Message req{.tag = tags::kAvgReq};
        {
          common::MutexLock lock(model_mu[w]);
          req.data = models[w];
        }
        obs::ScopedTimer comm_timer(track, obs::Category::kComm, "gossip",
                                    &worker.Times().comm);
        comm_timer.SetArg("iter", static_cast<double>(iter));
        comm_timer.SetArg("peer", static_cast<double>(peer));
        fabric.Send(w, peer, std::move(req));
        rep = fabric.RecvFor(w, tags::kAvgRep, reply_timeout);
        comm_timer.Stop();
        if (rep.has_value()) {
          gossiped = true;
        } else {
          // Timed out: the peer is crashed or the link ate the exchange.
          // Fall back to a local SGD step and stop gossiping with it.
          peer_suspect[peer] = true;
          obs::CountMetric("fault.gossip_timeouts");
        }
      } else {
        obs::CountMetric("fault.gossip_skipped");
      }

      {
        common::MutexLock lock(model_mu[w]);
        auto& mine = models[w];
        if (gossiped) {
          // Adopt the averaged model, then apply the local gradient.
          for (std::size_t i = 0; i < dim; ++i) {
            mine[i] = rep->data[i] - lr * grad[i];
          }
        } else {
          // Degraded iterate: plain local SGD, no averaging.
          for (std::size_t i = 0; i < dim; ++i) {
            mine[i] -= lr * grad[i];
          }
        }
        // Publish while still holding model_mu[0]: a responder may fold a
        // peer's gossip into models[0] at any moment. ParamBoard has its
        // own internal mutex and is never held while taking a model lock,
        // so the nesting cannot invert.
        if (w == 0) {
          board.Publish(mine, static_cast<std::int64_t>(iter) + 1);
        }
      }
      run.CountGradients(1);
      if (w == 0) run.CountRound();
      if (lockstep) gate.ReleaseTurn(w);
    }
    // Retire also releases a turn still held after a break.
    if (lockstep) gate.Retire(w);
    workers_running.fetch_sub(1);
  });

  for (auto& t : trainers) t.join();
  for (auto& t : responders) t.join();
  // The canonical AD-PSGD model is the average over the result ranks.
  return run.Finish(std::move(models), FinalModel::kAverage);
}

}  // namespace rna::baselines
