#include <atomic>
#include <thread>

#include "rna/baselines/baselines.hpp"
#include "rna/common/check.hpp"
#include "rna/net/fabric.hpp"
#include "rna/net/fault.hpp"
#include "rna/obs/metrics.hpp"
#include "rna/obs/trace.hpp"
#include "rna/ps/server.hpp"
#include "rna/train/fault.hpp"
#include "rna/train/monitor.hpp"
#include "rna/train/stage.hpp"
#include "rna/train/worker.hpp"

namespace rna::baselines {

using namespace rna::train;

// The centralized algorithm of §2.2 in its asynchronous form (Downpour-
// style): every worker loops { pull model → compute gradient → push an SGD
// delta }, the server folds deltas in arrival order. There is no barrier,
// so stragglers never block anyone — but all N workers funnel through one
// server endpoint, the communication hotspot that motivates decentralized
// training in the first place.
TrainResult RunCentralizedPs(const TrainerConfig& config,
                             const ModelFactory& factory,
                             const data::Dataset& train_data,
                             const data::Dataset& val_data) {
  const std::size_t world = config.world;
  RNA_CHECK_MSG(world >= 1, "need at least one worker");

  auto workers = MakeWorkers(config, factory, train_data);
  const std::size_t dim = workers[0]->Dim();
  const std::vector<float> init = InitialParams(config, factory);

  // The model is range-sharded over ps_shards independent server
  // endpoints [world, world + shards); workers stripe their push/pulls
  // (ps::PsClient), which splits the single-endpoint hotspot.
  const std::size_t shards =
      std::min(std::max<std::size_t>(1, config.ps_shards), dim);
  const net::Rank first_server = world;
  net::Fabric fabric(world + shards);

  FaultRuntime faults(config);
  if (auto plan = BuildFaultPlan(config)) {
    fabric.InstallFaultPlan(std::move(plan));
  }
  const bool faulty = config.fault.Enabled();
  const bool lockstep = config.lockstep;
  // Lockstep serializes the whole iterate (compute + PushPull) into rank
  // order, so deltas reach the server in a replayable sequence.
  RoundRobinGate gate(world);

  std::vector<std::unique_ptr<ps::ParameterServer>> servers;
  servers.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    const auto begin = static_cast<std::ptrdiff_t>(
        ps::ShardFirst(dim, shards, s));
    const auto end = static_cast<std::ptrdiff_t>(
        ps::ShardLast(dim, shards, s));
    std::vector<float> slice(init.begin() + begin, init.begin() + end);
    servers.push_back(std::make_unique<ps::ParameterServer>(
        fabric, first_server + s, std::move(slice)));
    servers.back()->Start();
  }

  ParamBoard board(init);
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> rounds_done{0};
  std::atomic<std::size_t> gradients{0};
  std::atomic<std::size_t> workers_joined{0};
  std::atomic<std::size_t> workers_left{0};

  EvalMonitor monitor(config, factory, val_data);
  monitor.Start(board, stop, rounds_done);

  std::vector<WorkerTimeBreakdown> wait_comm(world);
  obs::ScopedTimer wall_timer(obs::RegisterTrack("main"),
                              obs::Category::kOther, "train_total");

  std::vector<std::thread> threads;
  threads.reserve(world);
  for (std::size_t w = 0; w < world; ++w) {
    threads.emplace_back([&, w] {
      const obs::TrackHandle track =
          obs::RegisterTrack(obs::WorkerTrack(w, "ps"));
      ps::PsClient client(fabric, w, first_server, shards, dim);
      if (faulty) {
        client.ConfigureRetry(config.fault.retry_budget,
                              config.fault.retry_timeout_s);
      }
      std::vector<float> params = init;
      std::vector<float> grad(dim);
      std::vector<float> delta(dim);
      const auto lr = static_cast<float>(config.sgd.learning_rate);
      // Elastic schedule (lockstep-only, per Validate): a pending rank
      // passes its gate turns without computing, pulls the current model
      // at its join iteration, and a leaver retires cleanly at its leave
      // iteration — the rotation stays deterministic throughout.
      std::size_t join_at = 0;
      std::size_t leave_at = ElasticSchedule::kNever;
      for (const ElasticSchedule& e : config.elastic) {
        if (e.rank == w) {
          join_at = e.join_at_round;
          leave_at = e.leave_at_round;
        }
      }
      bool joined = join_at == 0;

      for (std::size_t iter = 0; iter < config.max_rounds && !stop.load();
           ++iter) {
        if (lockstep && !gate.AcquireTurn(w)) break;
        if (iter >= leave_at) {
          obs::CountMetric("elastic.leaves");
          workers_left.fetch_add(1);
          if (lockstep) gate.ReleaseTurn(w);
          break;  // gate.Retire below removes w from the rotation
        }
        if (!joined) {
          if (iter < join_at) {
            if (lockstep) gate.ReleaseTurn(w);
            continue;  // pending: pass the turn, keep the rotation intact
          }
          // Join: adopt the server's current model before contributing. A
          // failed pull retries on the next turn.
          if (auto pulled = client.TryPull()) {
            params = std::move(*pulled);
            joined = true;
            obs::CountMetric("elastic.joins");
            workers_joined.fetch_add(1);
          } else {
            obs::CountMetric("fault.ps_sync_skipped");
          }
          if (lockstep) gate.ReleaseTurn(w);
          continue;  // first gradient computes against the joined model
        }
        if (faults.BeforeIteration(w, workers[w]->Iterations()) ==
            IterationFate::kCrash) {
          faults.Kill(w);
          obs::CountMetric("fault.worker.goodbyes");
          break;  // gate.Retire below releases the rotation
        }
        workers[w]->ComputeGradient(params, grad);
        // Push the SGD delta and pull the freshest model in one round trip
        // (the PS applies requests atomically in arrival order).
        const auto scale = lr / static_cast<float>(world);
        for (std::size_t i = 0; i < dim; ++i) delta[i] = -scale * grad[i];
        obs::ScopedTimer comm_timer(track, obs::Category::kComm,
                                    "push_pull", &wait_comm[w].comm);
        comm_timer.SetArg("iter", static_cast<double>(iter));
        // Under faults the call is at-least-once with bounded retry; a slow
        // (not dropped) request can double-apply its delta — accepted as
        // gradient noise on a lossy fabric (see PsClient). A failed call
        // skips the iterate's sync: the worker keeps its stale model and
        // moves on.
        if (auto pulled =
                client.TryPushPull(delta, ps::ApplyMode::kAddDelta)) {
          params = std::move(*pulled);
        } else {
          obs::CountMetric("fault.ps_sync_skipped");
        }
        comm_timer.Stop();
        gradients.fetch_add(1);
        if (w == 0) {
          board.Publish(params, static_cast<std::int64_t>(iter) + 1);
          rounds_done.fetch_add(1);
        }
        if (lockstep) gate.ReleaseTurn(w);
      }
      // Retire also releases a turn still held after a break.
      if (lockstep) gate.Retire(w);
    });
  }
  for (auto& t : threads) t.join();
  const common::Seconds wall_s = wall_timer.Stop();
  monitor.Finish();

  std::vector<float> final_params;
  final_params.reserve(dim);
  for (auto& server : servers) {
    const std::vector<float> shard = server->Snapshot();
    final_params.insert(final_params.end(), shard.begin(), shard.end());
    server->Stop();
  }

  TrainResult result;
  result.rounds = rounds_done.load();
  result.gradients_applied = gradients.load();
  result.live_workers = faults.LiveCount();
  result.workers_joined = workers_joined.load();
  result.workers_left = workers_left.load();
  FinishRun(result, wall_s, monitor, workers, wait_comm,
            std::move(final_params), train_data);
  return result;
}

}  // namespace rna::baselines
