#pragma once

// Per-run fault machinery shared by every protocol runner:
//  * DeadlinesFor picks the deadline of every protocol wait;
//  * BuildFaultPlan lowers TrainerConfig::fault's network probabilities into
//    a net::FaultPlan for the run's fabric;
//  * FaultRuntime tracks which ranks are alive and fires the per-rank
//    worker schedules (crash / hang / flaky) at deterministic, schedule-
//    indexed points — the flaky coin flips come from a SplitMix64 hash of
//    (fault seed, rank, iteration), not a shared RNG, so they replay
//    identically regardless of thread interleaving;
//  * RoundRobinGate serializes per-worker iterations into a fixed global
//    order for TrainerConfig::lockstep runs of AD-PSGD, which has no
//    controller to pace it (rna-h's PS layer reuses it for group syncs).

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "rna/common/clock.hpp"
#include "rna/common/mutex.hpp"
#include "rna/common/thread_annotations.hpp"
#include "rna/train/config.hpp"

namespace rna::net {
class FaultPlan;
}

namespace rna::train {

/// The bounds on a run's protocol waits. Every wait has one: a fault-free
/// run bounds each by common::kLosslessDeadline, which only a protocol bug
/// can reach, and a fault-injected run uses FaultConfig's recovery knobs.
struct Deadlines {
  common::Seconds hop;         ///< collective hop, group broadcast
  common::Seconds report;      ///< controller's step-ack and report waits
  common::Seconds probe;       ///< free-running wait before a forced trigger
  std::size_t ps_attempts;     ///< PS client attempts per call
  common::Seconds ps_retry_s;  ///< first PS attempt's wait (doubles after)
};

/// The one place that reads FaultConfig::Enabled() to pick deadlines.
Deadlines DeadlinesFor(const TrainerConfig& config);

/// The effective fault seed for a run (fault.seed, or derived from the
/// training seed when 0 so one seed replays the whole chaos scenario).
std::uint64_t EffectiveFaultSeed(const TrainerConfig& config);

/// Lowers the config's network fault probabilities into a fault plan for
/// the run's fabric. Returns nullptr when no network fault can fire (the
/// zero-fault path then skips plan installation entirely).
std::shared_ptr<net::FaultPlan> BuildFaultPlan(const TrainerConfig& config);

/// What FaultRuntime::BeforeIteration tells the worker loop to do.
enum class IterationFate {
  kRun,    ///< proceed normally (any hang/flaky sleep already served)
  kCrash,  ///< fail-stop now: announce kGoodbye and exit the worker loop
};

class FaultRuntime {
 public:
  explicit FaultRuntime(const TrainerConfig& config);

  /// Compute-path hook, called before computing local iteration `iter`
  /// (0-based). Serves hang/flaky sleeps inline; returns kCrash when the
  /// schedule says this rank dies here (the caller must not compute).
  IterationFate BeforeIteration(std::size_t rank, std::size_t iter);

  /// Comm-path hook: true when `rank` is scheduled to die on receiving the
  /// Go for `round` (mid-collective fail-stop).
  bool ShouldCrashInRound(std::size_t rank, std::size_t round) const;

  /// Marks a rank dead (fail-stop is permanent). Idempotent.
  void Kill(std::size_t rank);
  bool Alive(std::size_t rank) const {
    return alive_[rank].load(std::memory_order_acquire);
  }
  std::size_t LiveCount() const;

 private:
  const WorkerFaultSchedule* ScheduleFor(std::size_t rank) const {
    return schedules_[rank];
  }

  std::uint64_t fault_seed_;
  std::vector<const WorkerFaultSchedule*> schedules_;  ///< by rank, may be null
  std::vector<WorkerFaultSchedule> storage_;
  std::vector<std::atomic<bool>> alive_;
};

/// Serializes worker iterations into the fixed global order
/// (iteration 0: ranks 0..N−1, iteration 1: ranks 0..N−1, …), skipping
/// retired (crashed or finished) ranks, so protocols without a controller
/// have a deterministic schedule under lockstep. Shutdown() releases every
/// waiter with `false`.
class RoundRobinGate {
 public:
  explicit RoundRobinGate(std::size_t world);

  /// Waits up to `timeout` seconds for `rank`'s turn. False when the turn
  /// did not come in time, the rank was retired or the gate was shut down.
  /// Only a true return must be paired with ReleaseTurn.
  bool AcquireTurnFor(std::size_t rank, common::Seconds timeout);

  void ReleaseTurn(std::size_t rank);

  /// Permanently removes a rank from the rotation (crash or loop exit).
  void Retire(std::size_t rank);

  void Shutdown();

 private:
  void AdvanceLocked() RNA_REQUIRES(mu_);

  common::Mutex mu_;
  common::CondVar cv_;
  std::vector<bool> retired_ RNA_GUARDED_BY(mu_);
  std::size_t cursor_ RNA_GUARDED_BY(mu_) = 0;
  std::size_t live_ RNA_GUARDED_BY(mu_);
  bool down_ RNA_GUARDED_BY(mu_) = false;
};

}  // namespace rna::train
