#include "rna/train/group_engine.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <string>
#include <thread>

#include "rna/collectives/allreduce.hpp"
#include "rna/collectives/ring.hpp"
#include "rna/common/check.hpp"
#include "rna/obs/metrics.hpp"
#include "rna/obs/trace.hpp"
#include "rna/ps/server.hpp"
#include "rna/train/readiness.hpp"
#include "rna/train/round_plan.hpp"
#include "rna/train/run.hpp"
#include "rna/train/stage.hpp"
#include "rna/train/tags.hpp"

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

 private:
  std::size_t majority_ = 1;
};

class SoloPolicy final : public TriggerPolicy {
 public:
  bool ShouldTrigger(const ReadinessBoard& ready) override {
    return ready.ReadyRanks() > 0;
  }
};

class FullPolicy final : public TriggerPolicy {
 public:
  bool ShouldTrigger(const ReadinessBoard& ready) override {
    return ready.ReadyRanks() == ready.Size();
  }
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
  /// Serves the run's initial parameters from fabric endpoint `rank`.
  PsLayer(const Run& run, net::Fabric& fabric, net::Rank rank,
          std::size_t num_groups)
      : run_(run),
        fabric_(fabric),
        gate_(num_groups),
        server_(fabric, rank, run.Init()) {
    server_.Start();
  }

  PsLayer(const PsLayer&) = delete;
  PsLayer& operator=(const PsLayer&) = delete;

  /// Round leader `self`'s sync: push the group model and replace it with
  /// the running average pulled back. An exhausted retry budget keeps the
  /// local group model, which the next sync folds in.
  void Sync(std::size_t group, net::Rank self, std::vector<float>& params) {
    // The turn wait is bounded, so a hung group ahead in the rotation
    // cannot stall this one forever.
    const bool lockstep = run_.Config().lockstep;
    if (lockstep && !gate_.AcquireTurnFor(group, run_.Waits().hop)) {
      obs::CountMetric("fault.ps_turn_timeouts");
      return;
    }
    ps::PsClient client(fabric_, self, server_.ServerRank(), params.size());
    client.ConfigureRetry(run_.Waits().ps_attempts, run_.Waits().ps_retry_s);
    if (auto avg = client.TryPushPull(params, ps::ApplyMode::kAverage)) {
      // The reply's pooled storage becomes the model, and the storage it
      // replaces goes back to the pool in its place.
      params.swap(*avg);
      fabric_.Pool().Recycle(std::move(*avg));
    } else {
      obs::CountMetric("fault.ps_sync_skipped");
    }
    if (lockstep) gate_.ReleaseTurn(group);
  }

  /// A finished group frees any leader still waiting for its turn.
  void Retire(std::size_t group) { gate_.Retire(group); }

 private:
  const Run& run_;
  net::Fabric& fabric_;
  RoundRobinGate gate_;
  ps::ParameterServer server_;  ///< stops on destruction
};

// One speed group: its members in rank order, the board its round leader
// publishes, and its controller's tallies. A group computes against its
// *own* model, never another group's (cross-group model flow goes through
// the PS layer only), which keeps every group's compute inputs on its own
// deterministic round boundary under lockstep. Only the group's controller
// writes the tallies; the main thread reads them after the controllers'
// join(), which orders those accesses (verified under TSan by
// tests/test_race_stress.cpp).
struct SpeedGroup {
  explicit SpeedGroup(const std::vector<float>& init) : board(init) {}

  std::vector<net::Rank> members;
  ParamBoard board;
  std::vector<std::size_t> contributors;  ///< per round
  // Thread-CPU seconds, not wall time: with worker threads oversubscribing
  // the cores, wall time inside a work section measures preemption. Each
  // section's ScopedTimer still records the wall span for the trace.
  common::Seconds busy = 0.0;
  std::size_t msgs = 0;  ///< messages the controller sent or handled
};

// The state every thread of one engine run shares.
struct Engine {
  Engine(Run& r, std::vector<std::size_t> groups_of_ranks, bool with_ps)
      : run(r),
        config(r.Config()),
        group_of(std::move(groups_of_ranks)),
        num_groups(1 + *std::max_element(group_of.begin(), group_of.end())),
        // Endpoint layout: [workers | group controllers | PS]. Flat RNA
        // (one group, no PS layer) is [workers | controller].
        fabric(r.OpenFabric(config.world + num_groups + (with_ps ? 1 : 0))),
        index_in_group(config.world),
        final_params(config.world) {
    for (std::size_t g = 0; g < num_groups; ++g) {
      groups.push_back(std::make_unique<SpeedGroup>(run.Init()));
    }
    for (std::size_t w = 0; w < config.world; ++w) {
      index_in_group[w] = groups[group_of[w]]->members.size();
      groups[group_of[w]]->members.push_back(w);
    }
    if (with_ps) {
      ps = std::make_unique<PsLayer>(run, fabric, config.world + num_groups,
                                     num_groups);
    }
    for (std::size_t w = 0; w < config.world; ++w) {
      stages.push_back(std::make_unique<GradientStage>(
          run.Dim(), config.staleness_bound, config.combine));
    }
  }

  net::Rank ControllerOf(std::size_t w) const {
    return config.world + group_of[w];
  }

  Run& run;
  const TrainerConfig& config;
  // A rank's group and its index inside that group are table lookups, so a
  // controller's per-message work does not grow with the world.
  const std::vector<std::size_t> group_of;
  const std::size_t num_groups;
  net::Fabric& fabric;
  std::vector<std::size_t> index_in_group;
  std::vector<std::unique_ptr<SpeedGroup>> groups;
  std::unique_ptr<PsLayer> ps;
  std::vector<std::unique_ptr<GradientStage>> stages;
  std::atomic<bool> global_stop{false};  ///< raised by a live rank's exit
  /// Each comm thread's parameters at its exit, written into its own slot.
  std::vector<std::vector<float>> final_params;
};

// A worker's communication thread (Figure 4). On each round plan it drains
// the stage, runs the partial allreduce over the plan's members, applies
// the re-weighted step, joins its leader's PS sync and reports back. It
// leaves on the session's exit plan or when its rank dies.
void CommLoop(Engine& e, std::size_t w) {
  const TrainerConfig& config = e.config;
  net::Fabric& fabric = e.fabric;
  FaultRuntime& faults = e.run.Faults();
  WorkerContext& worker = e.run.Worker(w);
  const obs::TrackHandle track =
      obs::RegisterTrack(obs::WorkerTrack(w, "comm"));
  const std::size_t g = e.group_of[w];
  const net::Rank controller = e.ControllerOf(w);
  const auto group_size = static_cast<double>(e.groups[g]->members.size());
  const std::size_t dim = e.run.Dim();
  std::vector<float> params = e.run.Init();
  std::vector<float> buffer(dim);
  // For ContributionMode::kStaleReuse: the gradient this worker last put
  // into a collective, re-sent once while no fresh one is ready (re-sending
  // indefinitely would apply the same stale direction every round and
  // diverge; eager-SGD bounds the staleness).
  std::vector<float> last_sent(dim, 0.0f);
  bool last_sent_valid = false;
  const bool stale_reuse =
      config.contribution == ContributionMode::kStaleReuse;
  // Per-worker error-feedback residual for lossy compression, with room for
  // the partial collective's contributor-flag tail.
  collectives::ErrorFeedback feedback;
  collectives::CollectiveOptions opts = e.run.CollectiveOptionsFor(feedback);
  for (;;) {
    std::optional<net::Message> go;
    {
      obs::ScopedTimer wait_timer(track, obs::Category::kWait, "wait_trigger",
                                  &worker.Times().wait);
      // Short slices, so the wait also ends when the rank dies on its compute
      // side; a dropped exit Go ends it when the run closes the fabric.
      while (!(go = fabric.RecvFor(w, tags::kGo, 0.05)).has_value()) {
        if (fabric.IsClosed(w) || !faults.Alive(w)) break;
      }
    }
    if (!go.has_value()) break;
    std::optional<RoundPlan> plan = RoundPlan::Decode(go->meta, fabric.Size());
    RNA_CHECK_MSG(plan.has_value(), "malformed round plan");
    if (plan->kind == RoundPlan::Kind::kSessionEnd) break;
    const std::size_t round = plan->round;

    if (faults.ShouldCrashInRound(w, round)) {
      // Fail-stop while holding the round hostage: this rank is in the
      // round's membership, so survivors must abort via ring timeout.
      faults.Kill(w);
      obs::ScopedTimer crash_span(track, obs::Category::kFault, "crash");
      crash_span.SetArg("round", static_cast<double>(round));
      fabric.Send(w, controller,
                  {.tag = tags::kGoodbye,
                   .meta = {static_cast<std::int64_t>(round)}});
      break;
    }
    if (!faults.Alive(w)) break;  // the compute side announced the goodbye

    const collectives::Group ring{std::move(plan->members)};
    const auto member_it =
        std::find(ring.members.begin(), ring.members.end(), w);
    if (member_it == ring.members.end()) continue;  // sits this out
    const auto my_index =
        static_cast<std::size_t>(member_it - ring.members.begin());
    // The lowest-ranked member leads the round: it publishes the group
    // model, syncs it with the PS and roots the group broadcast.
    const bool leader = my_index == 0;

    e.run.StepLrSchedule(w, round);

    // Sweep stale chunks of earlier (possibly aborted) rounds so they can
    // never alias this round's unique tag ranges.
    if (round > 0) {
      fabric.Purge(w, tags::kRingBase, tags::RingTag(round) - 1);
      fabric.Purge(w, tags::kGroupCastBase, tags::GroupCastTag(round) - 1);
    }

    auto drained = e.stages[w]->Drain();
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

    opts.tag_base = tags::RingTag(round);
    opts.straggler = collectives::kNoStraggler;
    if (config.schedule == collectives::Schedule::kStragglar &&
        plan->straggler.has_value()) {
      // The verdict names a rank; the schedule wants the straggler's position
      // inside this round's ring. A verdict for a rank outside the round
      // (dropped between the verdict and the plan) degrades to the plain ring.
      const auto it = std::find(ring.members.begin(), ring.members.end(),
                                *plan->straggler);
      if (it != ring.members.end()) {
        opts.straggler = static_cast<std::size_t>(it - ring.members.begin());
      }
    }
    collectives::PartialResult reduced;
    {
      obs::ScopedTimer comm_timer(track, obs::Category::kComm,
                                  "partial_allreduce", &worker.Times().comm);
      comm_timer.SetArg("round", static_cast<double>(round));
      reduced = collectives::PartialAllreduceFor({fabric, ring, my_index},
                                                 opts, buffer, contributes);
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
      // RNA's Linear Scaling Rule: γ_k ∝ participating batch size, over the
      // group's original size (a dead worker is a permanent null contributor
      // under the paper's gradient rule). eager-SGD averages over that fixed
      // size too: absent workers dilute the update instead of re-weighting it.
      double scale = 1.0;
      if (stale_reuse || config.lr_policy == LrScalePolicy::kLinear) {
        scale = static_cast<double>(reduced.contributors) / group_size;
      }
      // The paper's W = 1/Σw re-weight, folded into the LR scale; the
      // leader reports it so the metric is per round.
      if (leader) obs::ObserveMetric("round.reweight_scale", scale);
      worker.Optimizer().Step(params, buffer, scale);
    }

    // Asynchronous cross-group averaging: the leader syncs the group model
    // with the PS and broadcasts whatever it ended up with (averaged or,
    // after a skipped sync, local), so followers never block on a sync that
    // did not happen. Skipped after an aborted collective: the group model
    // is stale, not wrong, and the next sync folds it in.
    if (e.ps && reduced.ok && config.ps_sync_every > 0 &&
        round % config.ps_sync_every == 0) {
      if (leader) {
        obs::ScopedTimer ps_timer(track, obs::Category::kComm, "ps_push_pull",
                                  &worker.Times().comm);
        ps_timer.SetArg("round", static_cast<double>(round));
        e.ps->Sync(g, w, params);
      }
      obs::ScopedTimer bcast_timer(track, obs::Category::kComm,
                                   "group_broadcast", &worker.Times().comm);
      bcast_timer.SetArg("round", static_cast<double>(round));
      if (!collectives::BroadcastFor(fabric, ring, my_index, 0, params,
                                     tags::GroupCastTag(round),
                                     e.run.Waits().hop)) {
        obs::CountMetric("fault.broadcast_timeouts");
      }
    }

    // The round number keeps versions monotonic across a leader change.
    if (leader) {
      e.groups[g]->board.Publish(params, static_cast<std::int64_t>(round) + 1);
    }
    fabric.Send(w, controller,
                {.tag = tags::kRoundEnd,
                 .meta = RoundReport{round, fresh ? drained->count : 0,
                                     !reduced.ok}
                             .Encode()});
  }
  // A crash must not end the session; only a live rank's exit plan (or a
  // fabric shutdown) does. A rank that died on its compute side may still
  // read its controller's exit plan, once its whole group is gone.
  if (faults.Alive(w)) e.global_stop.store(true);
  e.final_params[w] = std::move(params);
}

// Lockstep's step token: the round to compute a batch for, or nullopt on
// the exit token. Lockstep waits for its own controller's exit token, or
// for the fabric closing once every controller finished (a lossy fabric
// may drop the token): global_stop only means *some* group finished its
// rounds, and leaving on it would cut this group's step/ack handshake short
// and make the tail rounds of slower groups racy.
std::optional<std::int64_t> AwaitStepToken(net::Fabric& fabric,
                                           net::Rank w) {
  std::optional<net::Message> token;
  while (!(token = fabric.RecvFor(w, tags::kStep, 0.05)).has_value()) {
    if (fabric.IsClosed(w)) return std::nullopt;
  }
  if (token->meta.empty() || token->meta[0] < 0) return std::nullopt;
  return token->meta[0];
}

// A worker's compute thread (Figure 4): mini-batches against the newest
// model its group published, each gradient staged for the comm thread and
// announced to the controller. Free-running, batches run back to back until
// the session ends: the paper's wall-clock-raced schedule (see the
// engine-wide comment on board symmetry in stage.hpp). Lockstep paces them
// deterministically: one batch per controller step token.
void ComputeLoop(Engine& e, std::size_t w) {
  const bool lockstep = e.config.lockstep;
  net::Fabric& fabric = e.fabric;
  FaultRuntime& faults = e.run.Faults();
  WorkerContext& worker = e.run.Worker(w);
  GradientStage& stage = *e.stages[w];
  const ParamBoard& board = e.groups[e.group_of[w]]->board;
  const net::Rank controller = e.ControllerOf(w);
  std::vector<float> params = e.run.Init();
  std::vector<float> grad(e.run.Dim());
  std::int64_t seen = 0;
  for (;;) {
    std::int64_t round = -1;  // the token's round; free-running has none
    if (lockstep) {
      const std::optional<std::int64_t> token = AwaitStepToken(fabric, w);
      if (!token.has_value()) return;
      round = *token;
    } else if (e.global_stop.load(std::memory_order_relaxed)) {
      return;
    }
    if (!faults.Alive(w)) return;
    if (faults.BeforeIteration(w, worker.Iterations()) ==
        IterationFate::kCrash) {
      // Fail-stop announced from the compute side; the comm thread notices
      // Alive() == false and exits without a second goodbye.
      faults.Kill(w);
      obs::CountMetric("fault.worker.goodbyes");
      fabric.Send(w, controller, {.tag = tags::kGoodbye, .meta = {round}});
      return;
    }
    seen = board.ReadIfNewer(seen, &params);
    worker.ComputeGradient(params, grad);
    const bool grew = stage.Write(
        grad, static_cast<std::int64_t>(worker.Iterations()));
    // A lockstep token is always answered, so the controller can account
    // for every token; free-running notifies only on backlog growth, so the
    // controller's readiness counts track the true buffered-gradient count.
    if (grew || lockstep) fabric.Send(w, controller, {.tag = tags::kReady});
  }
}

// A speed group's controller (§3). Each round it waits for the trigger
// (lockstep: every live member's step ack; free-running: the policy's
// election over the members' readiness), sends every live member the round
// plan and folds their reports. Per-member state is indexed by the member's
// place in the group (index_in_group), and the readiness tally makes every
// policy decision and the forced-trigger scan O(1).
class Controller {
 public:
  Controller(Engine& e, std::size_t g,
             const TriggerPolicyFactory& policy_factory)
      : e_(e),
        g_(g),
        group_(*e.groups[g]),
        self_(e.config.world + g),
        track_(obs::RegisterTrack("group" + std::to_string(g) +
                                  "/controller")),
        rng_(e.config.seed + 9001 + 7 * g),
        policy_(policy_factory()),
        readiness_(group_.members.size()),
        live_(group_.members),
        state_(group_.members.size()) {}

  // Runs the group's rounds, then sends every member its exit.
  void Loop() {
    for (std::size_t round = 0;
         round < e_.config.max_rounds && !SessionOver(); ++round) {
      if (live_.empty()) break;
      policy_->BeginRound(readiness_.Size(), rng_);
      e_.config.lockstep ? PaceStep(round) : AwaitTrigger(round);
      if (SessionOver()) break;
      RoundPlan plan;
      plan.round = round;
      plan.members = live_;  // goodbyes may have shrunk it
      if (plan.members.empty()) break;

      obs::ScopedTimer round_timer(track_, obs::Category::kRound, "round");
      round_timer.SetArg("round", static_cast<double>(round));
      SendGo(plan);
      const std::size_t contributors = CollectReports(plan);
      round_timer.SetArg("contributors", static_cast<double>(contributors));
      obs::ObserveMetric("round.contributors",
                         static_cast<double>(contributors));
      group_.contributors.push_back(contributors);
      if (g_ == e_.group_of[0]) {  // rank 0's group records the run's rounds
        obs::CountMetric("round.count");
        e_.run.CountRound();
      }
    }
    // An exit plan plus an exit step token, so both of each member's
    // threads leave.
    const std::vector<std::int64_t> exit = RoundPlan::SessionEnd().Encode();
    for (const net::Rank r : group_.members) {
      e_.fabric.Send(self_, r, {.tag = tags::kGo, .meta = exit});
      e_.fabric.Send(self_, r, {.tag = tags::kStep, .meta = {-1}});
    }
    if (e_.ps) e_.ps->Retire(g_);
  }

 private:
  std::size_t Slot(net::Rank r) const { return e_.index_in_group[r]; }

  // Under lockstep every group's controller runs its full round schedule:
  // global_stop only records that another group's session ended first, and
  // honoring it here would make the number of rounds (and so the batch
  // accounting) of the remaining groups depend on cross-group thread
  // timing. The monitor's stop still ends the loop.
  bool SessionOver() const {
    return e_.run.Stopped() || (!e_.config.lockstep && e_.global_stop.load());
  }

  // A goodbye or a declared death removes a rank for good.
  void NoteGoodbye(net::Rank src, std::size_t round) {
    if (state_[Slot(src)].dead) return;
    state_[Slot(src)].dead = true;
    live_.erase(std::find(live_.begin(), live_.end(), src));
    e_.run.Faults().Kill(src);
    readiness_.Clear(Slot(src));
    obs::CountMetric("fault.controller.deaths");
    // A (near-)instant fault span on the controller track marks the
    // exclusion on the timeline.
    obs::ScopedTimer death_span(track_, obs::Category::kFault, "worker_death");
    death_span.SetArg("rank", static_cast<double>(src));
    death_span.SetArg("round", static_cast<double>(round));
  }

  // Folds a round report, possibly a late one of an earlier round, into the
  // gradient accounting and clears the rank's death strikes.
  RoundReport Account(const net::Message& msg) {
    std::optional<RoundReport> report = RoundReport::Decode(msg.meta);
    RNA_CHECK_MSG(report.has_value(), "malformed round report");
    const std::size_t i = Slot(msg.src);
    readiness_.Add(i, -static_cast<std::int64_t>(report->consumed));
    state_[i].misses = 0;
    if (!report->aborted) e_.run.CountGradients(report->consumed);
    return *report;
  }

  // Lockstep pacing: one compute token per live member, then account for
  // every token (kReady, kGoodbye, or a deadline miss from a hung worker,
  // who stays a member and contributes null).
  void PaceStep(std::size_t round) {
    const std::vector<net::Rank> members = live_;
    {
      common::ScopedCpuAccumulator token_cpu(&group_.busy);
      obs::ScopedTimer token_timer(track_, obs::Category::kOther,
                                   "ctrl_tokens");
      for (const net::Rank m : members) {
        e_.fabric.Send(self_, m,
                       {.tag = tags::kStep,
                        .meta = {static_cast<std::int64_t>(round)}});
      }
      group_.msgs += members.size();
      for (MemberState& m : state_) m.responded = false;
    }
    std::size_t got = 0;
    const int ack_tags[] = {tags::kReady, tags::kGoodbye};
    obs::ScopedTimer step_timer(track_, obs::Category::kWait, "step_wait");
    step_timer.SetArg("round", static_cast<double>(round));
    while (got < members.size() && !SessionOver()) {
      const common::Seconds left =
          e_.run.Waits().report - step_timer.Elapsed();
      if (left <= 0.0) break;
      auto msg = e_.fabric.RecvAnyFor(self_, ack_tags, left);
      if (!msg.has_value()) break;  // deadline
      common::ScopedCpuAccumulator handle_cpu(&group_.busy);
      obs::ScopedTimer handle_timer(track_, obs::Category::kOther,
                                    "ctrl_handle");
      ++group_.msgs;
      const std::size_t i = Slot(msg->src);
      if (msg->tag == tags::kGoodbye) {
        NoteGoodbye(msg->src, round);
      } else if (!state_[i].dead) {
        readiness_.Add(i, 1);
      }
      if (!state_[i].responded) {
        state_[i].responded = true;
        ++got;
      }
    }
  }

  // Free-running trigger: the policy's election over the members'
  // readiness, with a forced trigger once the probe deadline passes.
  void AwaitTrigger(std::size_t round) {
    obs::ScopedTimer probe_timer(track_, obs::Category::kWait, "probe_wait");
    probe_timer.SetArg("round", static_cast<double>(round));
    common::Seconds election_start = 0.0;
    while (!SessionOver()) {
      // Drain the whole notification backlog each pass so the controller
      // mailbox stays small even with very fast compute threads.
      while (auto note = e_.fabric.TryRecv(self_, tags::kReady)) {
        if (!state_[Slot(note->src)].dead) readiness_.Add(Slot(note->src), 1);
      }
      while (auto bye = e_.fabric.TryRecv(self_, tags::kGoodbye)) {
        NoteGoodbye(bye->src, round);
      }
      // A hung worker's late report from an earlier round.
      while (auto late = e_.fabric.TryRecv(self_, tags::kRoundEnd)) {
        Account(*late);
      }
      if (live_.empty()) break;
      if (policy_->ShouldTrigger(readiness_)) break;
      if (probe_timer.Elapsed() - election_start > e_.run.Waits().probe) {
        if (readiness_.ReadyRanks() > 0) {
          // Probed-and-silent workers are treated as absent (the paper's
          // null-gradient rule): force the round with whoever is ready
          // rather than waiting on the dead.
          obs::CountMetric("fault.forced_triggers");
          break;
        }
        // Nobody ready at all: hold a fresh election and keep waiting.
        policy_->BeginRound(readiness_.Size(), rng_);
        obs::CountMetric("fault.reelections");
        election_start = probe_timer.Elapsed();
      }
      auto note = e_.fabric.RecvFor(self_, tags::kReady, 0.002);
      if (note.has_value() && !state_[Slot(note->src)].dead) {
        readiness_.Add(Slot(note->src), 1);
      }
    }
  }

  // The plan carries the round's membership, so every member builds the
  // same ring, and the straggler verdict: the live member with the longest
  // ≥2-round non-contribution streak. Every member sees the same verdict,
  // so Schedule::kStragglar's permutation is identical ring-wide.
  void SendGo(RoundPlan& plan) {
    common::ScopedCpuAccumulator go_cpu(&group_.busy);
    obs::ScopedTimer go_timer(track_, obs::Category::kOther, "ctrl_go");
    std::size_t best_streak = 1;
    for (const net::Rank m : plan.members) {
      if (state_[Slot(m)].skip_streak > best_streak) {
        best_streak = state_[Slot(m)].skip_streak;
        plan.straggler = m;
      }
    }
    if (plan.straggler.has_value()) {
      obs::CountMetric("round.straggler_verdicts");
    }
    const std::vector<std::int64_t> meta = plan.Encode();
    for (const net::Rank r : plan.members) {
      e_.fabric.Send(self_, r, {.tag = tags::kGo, .meta = meta});
    }
    group_.msgs += plan.members.size();
  }

  // Folds the members' reports until each has answered or the report
  // deadline passed; returns the round's contributors. Two or more misses
  // in a row make a member the straggler verdict, which Schedule::kStragglar
  // consumes to re-order the ring around it (a one-round miss is noise;
  // skipping already covers it).
  std::size_t CollectReports(const RoundPlan& plan) {
    const int want[] = {tags::kRoundEnd, tags::kReady, tags::kGoodbye};
    std::size_t contributors = 0;
    std::size_t reports = 0;
    const std::size_t expected = plan.members.size();
    auto in_round = [&](net::Rank r) {
      return std::find(plan.members.begin(), plan.members.end(), r) !=
             plan.members.end();
    };
    for (MemberState& m : state_) m.responded = false;
    obs::ScopedTimer report_timer(track_, obs::Category::kWait,
                                  "report_wait");
    while (reports < expected) {
      const common::Seconds left =
          e_.run.Waits().report - report_timer.Elapsed();
      if (left <= 0.0) break;
      auto msg = e_.fabric.RecvAnyFor(self_, want, left);
      if (!msg.has_value()) break;  // deadline
      common::ScopedCpuAccumulator handle_cpu(&group_.busy);
      obs::ScopedTimer handle_timer(track_, obs::Category::kOther,
                                    "ctrl_handle");
      ++group_.msgs;
      const net::Rank src = msg->src;
      const std::size_t i = Slot(src);
      if (msg->tag == tags::kReady) {
        if (!state_[i].dead) readiness_.Add(i, 1);
        continue;
      }
      if (msg->tag == tags::kGoodbye) {
        NoteGoodbye(src, plan.round);
        if (in_round(src) && !state_[i].responded) {
          state_[i].responded = true;
          ++reports;
        }
        continue;
      }
      const RoundReport report = Account(*msg);
      if (report.round != plan.round) continue;  // late, already accounted
      if (!state_[i].responded) {
        state_[i].responded = true;
        ++reports;
      }
      if (!report.aborted && report.consumed > 0) {
        ++contributors;
        state_[i].skip_streak = 0;
      } else {
        ++state_[i].skip_streak;
      }
    }
    report_timer.Stop();
    if (reports < expected) {
      // Deadline expired with silent members: report silence means the
      // comm thread is gone (fail-stop), unlike step silence which is just
      // slow compute. Strike them; dead_after_misses strikes kills.
      for (const net::Rank m : plan.members) {
        if (state_[Slot(m)].dead || state_[Slot(m)].responded) continue;
        if (++state_[Slot(m)].misses >= e_.config.fault.dead_after_misses) {
          NoteGoodbye(m, plan.round);
          obs::CountMetric("fault.declared_dead");
        }
      }
      obs::CountMetric("fault.report_deadline_misses");
    }
    return contributors;
  }

  Engine& e_;
  const std::size_t g_;
  SpeedGroup& group_;
  const net::Rank self_;
  const obs::TrackHandle track_;
  common::Rng rng_;
  std::unique_ptr<TriggerPolicy> policy_;
  ReadinessBoard readiness_;
  std::vector<net::Rank> live_;  ///< the live members, in ring order
  struct MemberState {
    bool dead = false;
    bool responded = false;  ///< this round's ack or report is in
    std::size_t misses = 0;  ///< report deadlines missed in a row
    // Consecutive rounds the member reported without contributing a
    // gradient, the controller's persistent-straggler evidence.
    std::size_t skip_streak = 0;
  };
  std::vector<MemberState> state_;
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
  Run run(config, factory, train_data, val_data);
  std::vector<std::size_t> group_of =
      grouping ? grouping(run.Workers(), run.Init())
               : std::vector<std::size_t>(config.world, 0);
  RNA_CHECK_MSG(group_of.size() == config.world,
                "grouping must cover every rank");
  Engine e(run, std::move(group_of), grouping != nullptr);
  SpeedGroup& watched = *e.groups[e.group_of[0]];  // rank 0's group
  run.Start(watched.board);

  std::vector<std::thread> comm_threads =
      run.Spawn(config.world, [&e](std::size_t w) { CommLoop(e, w); });
  std::vector<std::thread> compute_threads =
      run.Spawn(config.world, [&e](std::size_t w) { ComputeLoop(e, w); });
  std::vector<std::thread> controllers =
      run.Spawn(e.num_groups, [&](std::size_t g) {
        Controller(e, g, policy_factory).Loop();
      });

  for (auto& t : controllers) t.join();
  // Every controller has sent its exits. Closing the fabric releases any
  // comm or lockstep compute thread whose exit a lossy fabric dropped.
  e.fabric.Shutdown();
  for (auto& t : comm_threads) t.join();
  // comm exits flip global_stop; free-running compute threads notice it
  // within an iteration.
  for (auto& t : compute_threads) t.join();

  // A group's survivors hold identical parameters after their last shared
  // collective, so the first result rank's replica is the result.
  TrainResult result =
      run.Finish(std::move(e.final_params), FinalModel::kFirst);
  for (const auto& stage : e.stages) {
    result.gradients_dropped += stage->Dropped();
  }
  obs::CountMetric("stage.staleness_drops",
                   static_cast<std::int64_t>(result.gradients_dropped));
  result.round_contributors = std::move(watched.contributors);
  for (const auto& group : e.groups) {
    result.controller_busy_seconds += group->busy;
    result.controller_messages += group->msgs;
  }
  return result;
}

}  // namespace rna::train
