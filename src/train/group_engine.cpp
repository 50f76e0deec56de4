#include "rna/train/group_engine.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <string>
#include <thread>

#include "rna/collectives/allreduce.hpp"
#include "rna/collectives/ring.hpp"
#include "rna/common/check.hpp"
#include "rna/net/fabric.hpp"
#include "rna/net/fault.hpp"
#include "rna/obs/metrics.hpp"
#include "rna/obs/trace.hpp"
#include "rna/ps/server.hpp"
#include "rna/train/fault.hpp"
#include "rna/train/monitor.hpp"
#include "rna/train/readiness.hpp"
#include "rna/train/round_plan.hpp"
#include "rna/train/stage.hpp"
#include "rna/train/tags.hpp"
#include "rna/train/worker.hpp"

namespace rna::train {

namespace {

// All three built-in policies read the ReadinessBoard's O(1) ready tally
// instead of scanning a per-rank vector, so a trigger decision costs the
// same at any group size.

class MajorityPolicy final : public TriggerPolicy {
 public:
  void BeginRound(std::size_t world, common::Rng&) override {
    majority_ = world / 2 + 1;
  }
  bool ShouldTrigger(const ReadinessBoard& ready) override {
    return ready.ReadyRanks() >= majority_;
  }
  const char* Name() const override { return "majority"; }

 private:
  std::size_t majority_ = 1;
};

class SoloPolicy final : public TriggerPolicy {
 public:
  void BeginRound(std::size_t, common::Rng&) override {}
  bool ShouldTrigger(const ReadinessBoard& ready) override {
    return ready.ReadyRanks() > 0;
  }
  const char* Name() const override { return "solo"; }
};

class FullPolicy final : public TriggerPolicy {
 public:
  void BeginRound(std::size_t, common::Rng&) override {}
  bool ShouldTrigger(const ReadinessBoard& ready) override {
    return ready.ReadyRanks() == ready.Size();
  }
  const char* Name() const override { return "full"; }
};

// Hierarchical RNA's cross-group layer (§4 phases 2–3): one parameter
// server that every group's round leader push/pulls its group model
// through. Groups never barrier against each other: the PS serves them in
// arrival order, which is what defuses the deterministic slowdown that
// defeats purely probabilistic approaches. Under lockstep a RoundRobinGate
// serializes the leaders' syncs into (sync round, group) order so the run
// replays bit-identically.
class PsLayer {
 public:
  /// Serves `init` from fabric endpoint `rank`.
  PsLayer(const Deadlines& deadlines, bool lockstep, net::Fabric& fabric,
          net::Rank rank, std::size_t num_groups, std::vector<float> init)
      : deadlines_(deadlines),
        lockstep_(lockstep),
        fabric_(fabric),
        gate_(num_groups),
        server_(fabric, rank, std::move(init)) {
    server_.Start();
  }

  PsLayer(const PsLayer&) = delete;
  PsLayer& operator=(const PsLayer&) = delete;

  /// Rank `self`'s client.
  ps::PsClient Client(net::Rank self, std::size_t dim) const {
    ps::PsClient client(fabric_, self, server_.ServerRank(), dim);
    client.ConfigureRetry(deadlines_.ps_attempts, deadlines_.ps_retry_s);
    return client;
  }

  /// The round leader's sync: push the group model and replace it with the
  /// running average pulled back. An exhausted retry budget keeps the
  /// local group model, which the next sync folds in.
  void Sync(std::size_t group, ps::PsClient& client,
            std::vector<float>& params) {
    // The turn wait is bounded, so a hung group ahead in the rotation
    // cannot stall this one forever.
    if (lockstep_ && !gate_.AcquireTurnFor(group, deadlines_.hop)) {
      obs::CountMetric("fault.ps_turn_timeouts");
      return;
    }
    if (auto avg = client.TryPushPull(params, ps::ApplyMode::kAverage)) {
      params = std::move(*avg);
    } else {
      obs::CountMetric("fault.ps_sync_skipped");
    }
    if (lockstep_) gate_.ReleaseTurn(group);
  }

  /// A finished group frees any leader still waiting for its turn.
  void Retire(std::size_t group) { gate_.Retire(group); }

 private:
  const Deadlines deadlines_;
  const bool lockstep_;
  net::Fabric& fabric_;
  RoundRobinGate gate_;
  ps::ParameterServer server_;  ///< stops on destruction
};

}  // namespace

std::unique_ptr<TriggerPolicy> MakeMajorityPolicy() {
  return std::make_unique<MajorityPolicy>();
}
std::unique_ptr<TriggerPolicy> MakeSoloPolicy() {
  return std::make_unique<SoloPolicy>();
}
std::unique_ptr<TriggerPolicy> MakeFullPolicy() {
  return std::make_unique<FullPolicy>();
}

TrainResult RunPartialCollective(const TrainerConfig& config,
                                 const ModelFactory& factory,
                                 const data::Dataset& train_data,
                                 const data::Dataset& val_data,
                                 const TriggerPolicyFactory& policy_factory,
                                 const SpeedGrouping& grouping) {
  const std::size_t world = config.world;
  RNA_CHECK_MSG(world >= 1, "need at least one worker");
  const Deadlines deadlines = DeadlinesFor(config);
  const bool lockstep = config.lockstep;

  auto workers = MakeWorkers(config, factory, train_data);
  const std::size_t dim = workers[0]->Dim();
  const std::vector<float> init = InitialParams(config, factory);

  // ---- groups --------------------------------------------------------------
  // A rank's group and its index inside that group are table lookups, so a
  // controller's per-message work does not grow with the world.
  const std::vector<std::size_t> group_of =
      grouping ? grouping(workers, init) : std::vector<std::size_t>(world, 0);
  RNA_CHECK_MSG(group_of.size() == world, "grouping must cover every rank");
  std::size_t num_groups = 0;
  for (const std::size_t g : group_of) num_groups = std::max(num_groups, g + 1);
  std::vector<collectives::Group> groups(num_groups);
  std::vector<std::size_t> index_in_group(world);
  for (std::size_t w = 0; w < world; ++w) {
    index_in_group[w] = groups[group_of[w]].Size();
    groups[group_of[w]].members.push_back(w);
  }

  // Endpoint layout: [workers | group controllers | PS]. Flat RNA (one
  // group, no PS layer) is [workers | controller].
  const net::Rank first_controller = world;
  const net::Rank ps_rank = world + num_groups;
  net::Fabric fabric(ps_rank + (grouping ? 1 : 0));

  FaultRuntime faults(config);
  if (auto plan = BuildFaultPlan(config)) {
    fabric.InstallFaultPlan(std::move(plan));
  }
  std::unique_ptr<PsLayer> ps;
  if (grouping) {
    ps = std::make_unique<PsLayer>(deadlines, lockstep, fabric, ps_rank,
                                   num_groups, init);
  }

  std::vector<std::unique_ptr<GradientStage>> stages;
  for (std::size_t w = 0; w < world; ++w) {
    stages.push_back(std::make_unique<GradientStage>(
        dim, config.staleness_bound, config.combine));
  }
  // One board per group, published by the round leader: a group computes
  // against its *own* model, never another group's (cross-group model flow
  // goes through the PS layer only), which keeps every group's compute
  // inputs on its own deterministic round boundary under lockstep. The
  // monitor watches rank 0's group.
  std::vector<std::unique_ptr<ParamBoard>> boards;
  for (std::size_t g = 0; g < num_groups; ++g) {
    boards.push_back(std::make_unique<ParamBoard>(init));
  }

  std::atomic<bool> stop{false};         // raised by the monitor
  std::atomic<bool> global_stop{false};  // raised by a comm thread's exit
  std::atomic<std::size_t> rounds_done{0};
  std::atomic<std::size_t> batches_applied{0};
  // Written by the controller of rank 0's group only; the main thread reads
  // it after the controllers' join(), which orders those accesses
  // (verified under TSan by tests/test_race_stress.cpp).
  std::vector<std::size_t> round_contributors;
  // Same single-writer discipline: each group controller owns its slots of
  // the busy-time and message tallies; the main thread reads them after
  // join().
  std::vector<common::Seconds> ctrl_busy(num_groups, 0.0);
  std::vector<std::size_t> ctrl_msgs(num_groups, 0);

  EvalMonitor monitor(config, factory, val_data);
  monitor.Start(*boards[group_of[0]], stop, rounds_done);

  std::vector<WorkerTimeBreakdown> comm_times(world);
  std::vector<std::vector<float>> final_params(world);

  obs::ScopedTimer wall_timer(obs::RegisterTrack("main"),
                              obs::Category::kOther, "train_total");

  // ---- communication threads -------------------------------------------
  std::vector<std::thread> comm_threads;
  comm_threads.reserve(world);
  for (std::size_t w = 0; w < world; ++w) {
    comm_threads.emplace_back([&, w] {
      const obs::TrackHandle track =
          obs::RegisterTrack(obs::WorkerTrack(w, "comm"));
      const std::size_t g = group_of[w];
      const net::Rank controller = first_controller + g;
      const auto group_size = static_cast<double>(groups[g].Size());
      std::vector<float> params = init;
      nn::SgdMomentum& optimizer = workers[w]->Optimizer();
      std::vector<float> buffer(dim);
      // For ContributionMode::kStaleReuse: the gradient this worker last
      // put into a collective, re-sent once while no fresh one is ready
      // (re-sending indefinitely would apply the same stale direction every
      // round and diverge; eager-SGD bounds the staleness).
      std::vector<float> last_sent(dim, 0.0f);
      bool last_sent_valid = false;
      const bool stale_reuse =
          config.contribution == ContributionMode::kStaleReuse;
      // Per-worker error-feedback residual for lossy compression; +1 for
      // the partial collective's contributor-flag tail. Pre-sized so the
      // hot loop never reallocates it.
      collectives::ErrorFeedback feedback;
      feedback.EnsureSize(dim + 1);
      std::optional<ps::PsClient> ps_client;
      if (ps) ps_client.emplace(ps->Client(w, dim));
      bool died = false;  // fail-stop exit, distinct from session end
      for (;;) {
        std::optional<net::Message> go;
        {
          obs::ScopedTimer wait_timer(track, obs::Category::kWait,
                                      "wait_trigger", &comm_times[w].wait);
          // Short slices, so the wait also ends when the rank dies on its
          // compute side; a dropped exit Go ends it when the run closes
          // the fabric.
          while (!(go = fabric.RecvFor(w, tags::kGo, 0.05)).has_value()) {
            if (fabric.IsClosed(w) || !faults.Alive(w)) break;
          }
        }
        if (!go.has_value()) {
          died = !faults.Alive(w);  // killed from the compute side
          break;
        }
        std::optional<RoundPlan> plan = RoundPlan::Decode(go->meta,
                                                          fabric.Size());
        RNA_CHECK_MSG(plan.has_value(), "malformed round plan");
        if (plan->kind == RoundPlan::Kind::kSessionEnd) break;
        const std::size_t round = plan->round;

        if (faults.ShouldCrashInRound(w, round)) {
          // Fail-stop while holding the round hostage: this rank is in the
          // round's membership, so survivors must abort via ring timeout.
          faults.Kill(w);
          obs::ScopedTimer crash_span(track, obs::Category::kFault, "crash");
          crash_span.SetArg("round", static_cast<double>(round));
          net::Message bye;
          bye.tag = tags::kGoodbye;
          bye.meta = {static_cast<std::int64_t>(round)};
          fabric.Send(w, controller, std::move(bye));
          died = true;
          break;
        }
        if (!faults.Alive(w)) {
          died = true;  // compute-side crash already announced the goodbye
          break;
        }

        const collectives::Group ring{std::move(plan->members)};
        const auto member_it =
            std::find(ring.members.begin(), ring.members.end(), w);
        if (member_it == ring.members.end()) continue;  // sits this out
        const auto my_index =
            static_cast<std::size_t>(member_it - ring.members.begin());
        // The lowest-ranked member leads the round: it publishes the
        // group model, syncs it with the PS and roots the group broadcast.
        const bool leader = my_index == 0;

        // Step LR schedule: every worker decays at the same round.
        for (std::size_t milestone : config.lr_decay_rounds) {
          if (milestone == round) {
            optimizer.DecayLearningRate(config.lr_decay_factor);
          }
        }

        // Sweep stale chunks of earlier (possibly aborted) rounds so they
        // can never alias this round's unique tag ranges.
        if (round > 0) {
          fabric.Purge(w, tags::kRingBase, tags::RingTag(round) - 1);
          fabric.Purge(w, tags::kGroupCastBase,
                       tags::GroupCastTag(round) - 1);
        }

        auto drained = stages[w]->Drain();
        const bool fresh = drained.has_value();
        bool contributes = fresh;
        if (fresh) {
          buffer = std::move(drained->grad);
          if (stale_reuse) {
            last_sent = buffer;
            last_sent_valid = true;
          }
        } else if (stale_reuse && last_sent_valid) {
          buffer = last_sent;  // eager-SGD: repeat the stale gradient once
          last_sent_valid = false;
          contributes = true;
        } else {
          std::fill(buffer.begin(), buffer.end(), 0.0f);  // null gradient
        }

        collectives::CollectiveOptions opts;
        opts.schedule = config.schedule;
        opts.compression = config.compression;
        opts.topk_fraction = config.topk_fraction;
        opts.tag_base = tags::RingTag(round);
        opts.hop_timeout = deadlines.hop;
        opts.feedback = &feedback;
        if (config.schedule == collectives::Schedule::kStragglar &&
            plan->straggler.has_value()) {
          // The verdict names a rank; the schedule wants the straggler's
          // position inside this round's ring. A verdict for a rank outside
          // the round (dropped between the verdict and the plan) degrades
          // to the plain ring.
          const auto it = std::find(ring.members.begin(),
                                    ring.members.end(), *plan->straggler);
          if (it != ring.members.end()) {
            opts.straggler =
                static_cast<std::size_t>(it - ring.members.begin());
          }
        }
        collectives::PartialResult reduced;
        {
          obs::ScopedTimer comm_timer(track, obs::Category::kComm,
                                      "partial_allreduce",
                                      &comm_times[w].comm);
          comm_timer.SetArg("round", static_cast<double>(round));
          reduced = collectives::PartialAllreduceFor(
              {fabric, ring, my_index}, opts, buffer, contributes);
          comm_timer.SetArg("contributors",
                            static_cast<double>(reduced.contributors));
        }
        if (!reduced.ok) {
          obs::ScopedTimer abort_span(track, obs::Category::kFault,
                                      "collective_abort");
          abort_span.SetArg("round", static_cast<double>(round));
          obs::CountMetric("fault.collective_aborts");
        }

        if (reduced.ok && reduced.contributors > 0) {
          // RNA's Linear Scaling Rule: γ_k ∝ participating batch size, over
          // the group's original size (a dead worker is a permanent null
          // contributor under the paper's gradient rule). eager-SGD
          // averages over that fixed size too: absent workers dilute the
          // update instead of re-weighting it.
          double scale = 1.0;
          if (stale_reuse || config.lr_policy == LrScalePolicy::kLinear) {
            scale = static_cast<double>(reduced.contributors) / group_size;
          }
          // The paper's W = 1/Σw re-weight, folded into the LR scale; the
          // leader reports it so the metric is per round.
          if (leader) obs::ObserveMetric("round.reweight_scale", scale);
          optimizer.Step(params, buffer, scale);
        }

        // Asynchronous cross-group averaging: the leader syncs the group
        // model with the PS and broadcasts whatever it ended up with
        // (averaged or, after a skipped sync, local), so followers never
        // block on a sync that did not happen. Skipped after an aborted
        // collective: the group model is stale, not wrong, and the next
        // sync folds it in.
        if (ps && reduced.ok && config.ps_sync_every > 0 &&
            round % config.ps_sync_every == 0) {
          if (leader) {
            obs::ScopedTimer ps_timer(track, obs::Category::kComm,
                                      "ps_push_pull", &comm_times[w].comm);
            ps_timer.SetArg("round", static_cast<double>(round));
            ps->Sync(g, *ps_client, params);
          }
          obs::ScopedTimer bcast_timer(track, obs::Category::kComm,
                                       "group_broadcast",
                                       &comm_times[w].comm);
          bcast_timer.SetArg("round", static_cast<double>(round));
          if (!collectives::BroadcastFor(fabric, ring, my_index, 0, params,
                                         tags::GroupCastTag(round),
                                         deadlines.hop)) {
            obs::CountMetric("fault.broadcast_timeouts");
          }
        }

        // The round number keeps versions monotonic across a leader change.
        if (leader) {
          boards[g]->Publish(params, static_cast<std::int64_t>(round) + 1);
        }
        net::Message report;
        report.tag = tags::kRoundEnd;
        report.meta =
            RoundReport{round, fresh ? drained->count : 0, !reduced.ok}
                .Encode();
        fabric.Send(w, controller, std::move(report));
      }
      // A crash must not end the session; only the exit plan (or a fabric
      // shutdown) does.
      if (!died) global_stop.store(true);
      final_params[w] = std::move(params);
    });
  }

  // ---- compute threads ---------------------------------------------------
  std::vector<std::thread> compute_threads;
  compute_threads.reserve(world);
  for (std::size_t w = 0; w < world; ++w) {
    compute_threads.emplace_back([&, w] {
      const net::Rank controller = first_controller + group_of[w];
      const ParamBoard& board = *boards[group_of[w]];
      std::vector<float> params = init;
      std::vector<float> grad(dim);
      std::int64_t seen = 0;
      auto notify = [&](int tag, std::vector<std::int64_t> meta) {
        net::Message note;
        note.tag = tag;
        note.meta = std::move(meta);
        fabric.Send(w, controller, std::move(note));
      };
      auto crash_now = [&](std::int64_t round_hint) {
        // Fail-stop announced from the compute side; the comm thread
        // notices Alive() == false and exits without a second goodbye.
        faults.Kill(w);
        obs::CountMetric("fault.worker.goodbyes");
        notify(tags::kGoodbye, {round_hint});
      };
      if (lockstep) {
        // Deterministic pacing: compute exactly one batch per controller
        // step token; acknowledge with kReady (or kGoodbye on a scheduled
        // crash) so the controller can account for every token.
        for (;;) {
          std::optional<net::Message> token;
          while (!(token = fabric.RecvFor(w, tags::kStep, 0.05))
                      .has_value()) {
            // Lockstep waits for its own controller's exit token, or for
            // the fabric closing once every controller finished (a lossy
            // fabric may drop the token): global_stop only means *some*
            // group finished its rounds, and leaving on it would cut this
            // group's step/ack handshake short and make the tail rounds of
            // slower groups racy.
            if (fabric.IsClosed(w)) return;
          }
          if (token->meta.empty() || token->meta[0] < 0) return;
          if (!faults.Alive(w)) return;
          if (faults.BeforeIteration(w, workers[w]->Iterations()) ==
              IterationFate::kCrash) {
            crash_now(token->meta[0]);
            return;
          }
          seen = board.ReadIfNewer(seen, &params);
          workers[w]->ComputeGradient(params, grad);
          stages[w]->Write(grad,
                           static_cast<std::int64_t>(workers[w]->Iterations()));
          notify(tags::kReady, {});
        }
      }
      // Free-running: the paper's wall-clock-raced schedule. See the
      // engine-wide comment on board symmetry in stage.hpp.
      while (!global_stop.load(std::memory_order_relaxed)) {
        if (!faults.Alive(w)) return;
        if (faults.BeforeIteration(w, workers[w]->Iterations()) ==
            IterationFate::kCrash) {
          crash_now(-1);
          return;
        }
        seen = board.ReadIfNewer(seen, &params);
        workers[w]->ComputeGradient(params, grad);
        // Notify only on backlog growth so the controller's readiness
        // counts track the true buffered-gradient count.
        if (stages[w]->Write(
                grad, static_cast<std::int64_t>(workers[w]->Iterations()))) {
          notify(tags::kReady, {});
        }
      }
    });
  }

  // ---- group controllers -------------------------------------------------
  std::vector<std::thread> controllers;
  controllers.reserve(num_groups);
  for (std::size_t g = 0; g < num_groups; ++g) {
    controllers.emplace_back([&, g] {
      const obs::TrackHandle track =
          obs::RegisterTrack("group" + std::to_string(g) + "/controller");
      const collectives::Group& group = groups[g];
      const std::size_t group_size = group.Size();
      const net::Rank self = first_controller + g;
      // Busy time is accounted in thread-CPU seconds, not wall time: with
      // many worker threads oversubscribing the cores, the wall clock inside
      // the controller's work sections measures preemption. Each section's
      // ScopedTimer still records the wall span for the trace.
      common::Seconds& busy = ctrl_busy[g];
      std::size_t& msgs = ctrl_msgs[g];
      // Rank 0's group records the run's rounds and contributors.
      const bool records = g == group_of[0];
      common::Rng rng(config.seed + 9001 + 7 * g);
      std::unique_ptr<TriggerPolicy> policy = policy_factory();
      // Per-member state is indexed by the member's place in the group
      // (index_in_group). The readiness tally makes every policy decision
      // and the forced-trigger scan O(1).
      ReadinessBoard readiness(group_size);
      // The live members in ring order. A goodbye or a declared death
      // removes a rank for good.
      std::vector<net::Rank> live = group.members;
      std::vector<bool> dead(group_size, false);
      std::vector<std::size_t> miss_count(group_size, 0);
      std::vector<bool> responded(group_size, false);
      // Consecutive rounds each member reported without contributing a
      // gradient, the controller's persistent-straggler evidence. Two or
      // more misses in a row makes a member the round's straggler verdict,
      // which Schedule::kStragglar consumes to re-order the ring around it
      // (a one-round miss is noise; skipping already covers it).
      std::vector<std::size_t> skip_streak(group_size, 0);
      auto slot = [&](net::Rank r) { return index_in_group[r]; };

      auto note_goodbye = [&](net::Rank src, std::size_t round) {
        if (dead[slot(src)]) return;
        dead[slot(src)] = true;
        live.erase(std::find(live.begin(), live.end(), src));
        faults.Kill(src);
        readiness.Clear(slot(src));
        obs::CountMetric("fault.controller.deaths");
        // A (near-)instant fault span on the controller track marks the
        // exclusion on the timeline.
        obs::ScopedTimer death_span(track, obs::Category::kFault,
                                    "worker_death");
        death_span.SetArg("rank", static_cast<double>(src));
        death_span.SetArg("round", static_cast<double>(round));
      };
      // Folds a round report, possibly a late one of an earlier round, into
      // the gradient accounting and clears the rank's death strikes.
      auto account = [&](net::Rank src, const RoundReport& report) {
        readiness.Add(slot(src), -static_cast<std::int64_t>(report.consumed));
        miss_count[slot(src)] = 0;
        if (!report.aborted) batches_applied.fetch_add(report.consumed);
      };
      auto decode_report = [](const net::Message& msg) {
        std::optional<RoundReport> report = RoundReport::Decode(msg.meta);
        RNA_CHECK_MSG(report.has_value(), "malformed round report");
        return *report;
      };
      // Under lockstep every group's controller runs its full round
      // schedule: global_stop only records that another group's session
      // ended first, and honoring it here would make the number of rounds
      // (and so the batch accounting) of the remaining groups depend on
      // cross-group thread timing. The monitor's `stop` still ends the
      // loop.
      auto session_over = [&] {
        return stop.load() || (!lockstep && global_stop.load());
      };
      for (std::size_t round = 0; round < config.max_rounds && !session_over();
           ++round) {
        RoundPlan plan;
        plan.round = round;
        plan.members = live;
        if (plan.members.empty()) break;
        policy->BeginRound(group_size, rng);

        if (lockstep) {
          // Pace: one compute token per live member, then account for
          // every token (kReady, kGoodbye, or a deadline miss from a hung
          // worker, who stays a member and contributes null).
          {
            common::ScopedCpuAccumulator token_cpu(&busy);
            obs::ScopedTimer token_timer(track, obs::Category::kOther,
                                         "ctrl_tokens");
            for (const net::Rank m : plan.members) {
              net::Message step;
              step.tag = tags::kStep;
              step.meta = {static_cast<std::int64_t>(round)};
              fabric.Send(self, m, std::move(step));
            }
            msgs += plan.members.size();
            std::fill(responded.begin(), responded.end(), false);
          }
          std::size_t got = 0;
          const int ack_tags[] = {tags::kReady, tags::kGoodbye};
          obs::ScopedTimer step_timer(track, obs::Category::kWait,
                                      "step_wait");
          step_timer.SetArg("round", static_cast<double>(round));
          while (got < plan.members.size() && !session_over()) {
            const common::Seconds left =
                deadlines.report - step_timer.Elapsed();
            if (left <= 0.0) break;
            auto msg = fabric.RecvAnyFor(self, ack_tags, left);
            if (!msg.has_value()) break;  // deadline
            common::ScopedCpuAccumulator handle_cpu(&busy);
            obs::ScopedTimer handle_timer(track, obs::Category::kOther,
                                          "ctrl_handle");
            ++msgs;
            const std::size_t i = slot(msg->src);
            if (msg->tag == tags::kGoodbye) {
              note_goodbye(msg->src, round);
            } else if (!dead[i]) {
              readiness.Add(i, 1);
            }
            if (!responded[i]) {
              responded[i] = true;
              ++got;
            }
          }
          step_timer.Stop();
          if (session_over()) break;
        } else {
          obs::ScopedTimer probe_timer(track, obs::Category::kWait,
                                       "probe_wait");
          probe_timer.SetArg("round", static_cast<double>(round));
          common::Seconds election_start = 0.0;
          while (!stop.load() && !global_stop.load()) {
            // Drain the whole notification backlog each pass so the
            // controller mailbox stays small even with very fast compute
            // threads.
            while (auto note = fabric.TryRecv(self, tags::kReady)) {
              if (!dead[slot(note->src)]) readiness.Add(slot(note->src), 1);
            }
            while (auto bye = fabric.TryRecv(self, tags::kGoodbye)) {
              note_goodbye(bye->src, round);
            }
            // A hung worker's late report from an earlier round.
            while (auto late = fabric.TryRecv(self, tags::kRoundEnd)) {
              account(late->src, decode_report(*late));
            }
            if (live.empty()) break;
            if (policy->ShouldTrigger(readiness)) break;
            if (probe_timer.Elapsed() - election_start > deadlines.probe) {
              if (readiness.ReadyRanks() > 0) {
                // Probed-and-silent workers are treated as absent (the
                // paper's null-gradient rule): force the round with
                // whoever is ready rather than waiting on the dead.
                obs::CountMetric("fault.forced_triggers");
                break;
              }
              // Nobody ready at all: hold a fresh election and keep
              // waiting.
              policy->BeginRound(group_size, rng);
              obs::CountMetric("fault.reelections");
              election_start = probe_timer.Elapsed();
            }
            auto note = fabric.RecvFor(self, tags::kReady, 0.002);
            if (note.has_value() && !dead[slot(note->src)]) {
              readiness.Add(slot(note->src), 1);
            }
          }
          if (stop.load() || global_stop.load()) break;
        }
        plan.members = live;  // goodbyes may shrink it
        if (plan.members.empty()) break;

        obs::ScopedTimer round_timer(track, obs::Category::kRound, "round");
        round_timer.SetArg("round", static_cast<double>(round));
        {
          common::ScopedCpuAccumulator go_cpu(&busy);
          obs::ScopedTimer go_timer(track, obs::Category::kOther, "ctrl_go");
          // The plan carries the round's membership, so every member builds
          // the same ring, and the straggler verdict: the live member with
          // the longest ≥2-round non-contribution streak. Every member sees
          // the same verdict, so Schedule::kStragglar's permutation is
          // identical ring-wide.
          std::size_t best_streak = 1;
          for (const net::Rank m : plan.members) {
            if (skip_streak[slot(m)] > best_streak) {
              best_streak = skip_streak[slot(m)];
              plan.straggler = m;
            }
          }
          if (plan.straggler.has_value()) {
            obs::CountMetric("round.straggler_verdicts");
          }
          const std::vector<std::int64_t> meta = plan.Encode();
          for (const net::Rank r : plan.members) {
            net::Message go;
            go.tag = tags::kGo;
            go.meta = meta;
            fabric.Send(self, r, std::move(go));
          }
          msgs += plan.members.size();
        }
        const int want[] = {tags::kRoundEnd, tags::kReady, tags::kGoodbye};
        std::size_t contributors = 0;
        std::size_t reports = 0;
        const std::size_t expected = plan.members.size();
        auto in_round = [&](net::Rank r) {
          return std::find(plan.members.begin(), plan.members.end(), r) !=
                 plan.members.end();
        };
        std::fill(responded.begin(), responded.end(), false);
        obs::ScopedTimer report_timer(track, obs::Category::kWait,
                                      "report_wait");
        while (reports < expected) {
          const common::Seconds left =
              deadlines.report - report_timer.Elapsed();
          if (left <= 0.0) break;
          auto msg = fabric.RecvAnyFor(self, want, left);
          if (!msg.has_value()) break;  // deadline
          common::ScopedCpuAccumulator handle_cpu(&busy);
          obs::ScopedTimer handle_timer(track, obs::Category::kOther,
                                        "ctrl_handle");
          ++msgs;
          const net::Rank src = msg->src;
          const std::size_t i = slot(src);
          if (msg->tag == tags::kReady) {
            if (!dead[i]) readiness.Add(i, 1);
            continue;
          }
          if (msg->tag == tags::kGoodbye) {
            note_goodbye(src, round);
            if (in_round(src) && !responded[i]) {
              responded[i] = true;
              ++reports;
            }
            continue;
          }
          const RoundReport report = decode_report(*msg);
          account(src, report);
          if (report.round != round) continue;  // late, already accounted
          if (!responded[i]) {
            responded[i] = true;
            ++reports;
          }
          if (!report.aborted && report.consumed > 0) {
            ++contributors;
            skip_streak[i] = 0;
          } else {
            ++skip_streak[i];
          }
        }
        report_timer.Stop();
        if (reports < expected) {
          // Deadline expired with silent members: report silence means the
          // comm thread is gone (fail-stop), unlike step silence which is
          // just slow compute. Strike them; dead_after_misses strikes kills.
          for (const net::Rank m : plan.members) {
            if (dead[slot(m)] || responded[slot(m)]) continue;
            if (++miss_count[slot(m)] >= config.fault.dead_after_misses) {
              note_goodbye(m, round);
              obs::CountMetric("fault.declared_dead");
            }
          }
          obs::CountMetric("fault.report_deadline_misses");
        }
        round_timer.SetArg("contributors", static_cast<double>(contributors));
        obs::ObserveMetric("round.contributors",
                           static_cast<double>(contributors));
        if (records) {
          obs::CountMetric("round.count");
          round_contributors.push_back(contributors);
          rounds_done.fetch_add(1);
        }
      }
      // An exit plan plus an exit step token, so both of each member's
      // threads leave.
      const std::vector<std::int64_t> exit = RoundPlan::SessionEnd().Encode();
      for (const net::Rank r : group.members) {
        net::Message go;
        go.tag = tags::kGo;
        go.meta = exit;
        fabric.Send(self, r, std::move(go));
        net::Message step;
        step.tag = tags::kStep;
        step.meta = {-1};
        fabric.Send(self, r, std::move(step));
      }
      if (ps) ps->Retire(g);
    });
  }

  for (auto& t : controllers) t.join();
  // Every controller has sent its exits. Closing the fabric releases any
  // comm or lockstep compute thread whose exit a lossy fabric dropped.
  fabric.Shutdown();
  for (auto& t : comm_threads) t.join();
  // comm exits flip global_stop; free-running compute threads notice it
  // within an iteration.
  for (auto& t : compute_threads) t.join();
  const common::Seconds wall_s = wall_timer.Stop();
  monitor.Finish();
  ps.reset();

  TrainResult result;
  result.rounds = rounds_done.load();
  result.gradients_applied = batches_applied.load();
  for (auto& stage : stages) result.gradients_dropped += stage->Dropped();
  obs::CountMetric("stage.staleness_drops",
                   static_cast<std::int64_t>(result.gradients_dropped));
  result.round_contributors = std::move(round_contributors);
  result.live_workers = faults.LiveCount();
  for (std::size_t g = 0; g < num_groups; ++g) {
    result.controller_busy_seconds += ctrl_busy[g];
    result.controller_messages += ctrl_msgs[g];
  }

  // The lowest surviving rank's replica is the result (rank 0's if none
  // survived): a group's survivors hold identical parameters after their
  // last shared collective.
  std::size_t reporter = 0;
  while (reporter < world && !faults.Alive(reporter)) ++reporter;
  if (reporter == world) reporter = 0;
  FinishRun(result, wall_s, monitor, workers, comm_times,
            std::move(final_params[reporter]), train_data);
  return result;
}

}  // namespace rna::train
