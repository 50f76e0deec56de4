#include "rna/train/fault.hpp"

#include "rna/common/check.hpp"
#include "rna/common/rng.hpp"
#include "rna/net/fault.hpp"
#include "rna/obs/metrics.hpp"
#include "rna/ps/server.hpp"

namespace rna::train {

namespace {

std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  common::SplitMix64 sm(h ^ (v + 0x9e3779b97f4a7c15ULL));
  return sm.Next();
}

/// Deterministic uniform in [0, 1) for the flaky-window coin flips.
double FlakyDraw(std::uint64_t seed, std::size_t rank, std::size_t iter) {
  std::uint64_t h = Mix(seed, 0xF1A2Full);
  h = Mix(h, rank);
  h = Mix(h, iter);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

Deadlines DeadlinesFor(const TrainerConfig& config) {
  const FaultConfig& f = config.fault;
  if (!f.Enabled()) {
    constexpr common::Seconds t = common::kLosslessDeadline;
    return {.hop = t, .report = t, .probe = t, .ps_attempts = 1,
            .ps_retry_s = t};
  }
  // Under faults a report can lag a full aborted collective, so the
  // controller's report deadline exceeds the hop deadline.
  return {.hop = f.collective_timeout_s,
          .report = f.collective_timeout_s + f.probe_timeout_s,
          .probe = f.probe_timeout_s,
          .ps_attempts = f.retry_budget,
          .ps_retry_s = f.retry_timeout_s};
}

std::uint64_t EffectiveFaultSeed(const TrainerConfig& config) {
  if (config.fault.seed != 0) return config.fault.seed;
  return common::SplitMix64(config.seed ^ 0xC4A05C4A05ull).Next();
}

std::shared_ptr<net::FaultPlan> BuildFaultPlan(const TrainerConfig& config) {
  const FaultConfig& f = config.fault;
  const bool net_faults = f.drop_prob > 0.0 || f.dup_prob > 0.0 ||
                          f.delay_prob > 0.0 || f.ps_drop_prob > 0.0;
  if (!net_faults) return nullptr;

  auto plan = std::make_shared<net::FaultPlan>(EffectiveFaultSeed(config));
  if (f.ps_drop_prob > 0.0) {
    // PS traffic gets its own drop rate (first match wins, so this rule
    // shadows the catch-all on the PS tags); dup/delay still apply.
    net::FaultRule ps_rule;
    ps_rule.tag_lo = ps::PsTags::kRequest;
    ps_rule.tag_hi = ps::PsTags::kReply;
    ps_rule.drop_prob = f.ps_drop_prob;
    ps_rule.dup_prob = f.dup_prob;
    ps_rule.delay_prob = f.delay_prob;
    ps_rule.delay_s = f.delay_s;
    plan->AddRule(ps_rule);
  }
  if (f.drop_prob > 0.0 || f.dup_prob > 0.0 || f.delay_prob > 0.0) {
    net::FaultRule all;
    all.drop_prob = f.drop_prob;
    all.dup_prob = f.dup_prob;
    all.delay_prob = f.delay_prob;
    all.delay_s = f.delay_s;
    plan->AddRule(all);
  }
  return plan;
}

FaultRuntime::FaultRuntime(const TrainerConfig& config)
    : fault_seed_(EffectiveFaultSeed(config)),
      schedules_(config.world, nullptr),
      storage_(config.fault.workers),
      alive_(config.world) {
  for (auto& a : alive_) a.store(true, std::memory_order_relaxed);
  for (const WorkerFaultSchedule& w : storage_) {
    RNA_CHECK_MSG(w.rank < config.world, "fault schedule rank out of range");
    schedules_[w.rank] = &w;
  }
}

IterationFate FaultRuntime::BeforeIteration(std::size_t rank,
                                            std::size_t iter) {
  if (!Alive(rank)) return IterationFate::kCrash;
  const WorkerFaultSchedule* s = ScheduleFor(rank);
  if (s == nullptr) return IterationFate::kRun;
  if (iter >= s->crash_at_iteration) {
    // >= (not ==) so a rank revived by mistake can never compute past its
    // scheduled death.
    obs::CountMetric("fault.worker.crashes");
    return IterationFate::kCrash;
  }
  if (iter == s->hang_at_iteration && s->hang_for_s > 0.0) {
    obs::CountMetric("fault.worker.hangs");
    obs::ObserveMetric("fault.worker.hang_s", s->hang_for_s);
    common::SleepFor(s->hang_for_s);
  }
  if (iter >= s->flaky_from_iteration && iter < s->flaky_until_iteration &&
      s->flaky_prob > 0.0 &&
      FlakyDraw(fault_seed_, rank, iter) < s->flaky_prob) {
    obs::CountMetric("fault.worker.flaky_delays");
    common::SleepFor(s->flaky_delay_s);
  }
  return IterationFate::kRun;
}

bool FaultRuntime::ShouldCrashInRound(std::size_t rank,
                                      std::size_t round) const {
  const WorkerFaultSchedule* s = ScheduleFor(rank);
  return s != nullptr && s->crash_in_round != WorkerFaultSchedule::kNever &&
         round >= s->crash_in_round && Alive(rank);
}

void FaultRuntime::Kill(std::size_t rank) {
  alive_[rank].store(false, std::memory_order_release);
}

std::size_t FaultRuntime::LiveCount() const {
  std::size_t n = 0;
  for (const auto& a : alive_) {
    if (a.load(std::memory_order_acquire)) ++n;
  }
  return n;
}

RoundRobinGate::RoundRobinGate(std::size_t world)
    : retired_(world, false), live_(world) {
  RNA_CHECK_MSG(world > 0, "gate needs at least one rank");
}

void RoundRobinGate::AdvanceLocked() {
  if (live_ == 0) return;
  do {
    cursor_ = (cursor_ + 1) % retired_.size();
  } while (retired_[cursor_]);
}

bool RoundRobinGate::AcquireTurnFor(std::size_t rank,
                                    common::Seconds timeout) {
  const auto deadline =
      common::SteadyClock::now() + common::FromSeconds(timeout);
  common::MutexLock lock(mu_);
  for (;;) {
    if (down_ || retired_[rank]) return false;
    if (cursor_ == rank) return true;
    if (cv_.WaitUntil(mu_, deadline) == std::cv_status::timeout) {
      return !down_ && !retired_[rank] && cursor_ == rank;
    }
  }
}

void RoundRobinGate::ReleaseTurn(std::size_t rank) {
  {
    common::MutexLock lock(mu_);
    if (cursor_ == rank && !retired_[rank]) AdvanceLocked();
  }
  cv_.NotifyAll();
}

void RoundRobinGate::Retire(std::size_t rank) {
  {
    common::MutexLock lock(mu_);
    if (retired_[rank]) return;
    retired_[rank] = true;
    --live_;
    if (cursor_ == rank && live_ > 0) AdvanceLocked();
  }
  cv_.NotifyAll();
}

void RoundRobinGate::Shutdown() {
  {
    common::MutexLock lock(mu_);
    down_ = true;
  }
  cv_.NotifyAll();
}

}  // namespace rna::train
