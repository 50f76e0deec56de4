#pragma once

// Configuration shared by every synchronization protocol's training run.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "rna/collectives/schedule.hpp"
#include "rna/data/dataset.hpp"
#include "rna/nn/network.hpp"
#include "rna/nn/optimizer.hpp"
#include "rna/sim/workload.hpp"

namespace rna::train {

/// Which synchronization protocol drives the run.
enum class Protocol {
  kHorovod,          ///< BSP ring allreduce with coordinator negotiation
  kEagerSgd,         ///< majority-triggered partial collective
  kAdPsgd,           ///< asynchronous randomized pairwise averaging
  kRna,              ///< the paper's contribution (flat)
  kRnaHierarchical,  ///< RNA within speed groups + PS across groups (§4)
};

const char* ProtocolName(Protocol p);

/// Inverse of ProtocolName: canonical names plus the historical CLI
/// aliases ("eager" for eager-sgd, "adpsgd" for ad-psgd). std::nullopt for
/// anything else — CLIs decide how to report the error.
std::optional<Protocol> ParseProtocol(std::string_view name);

/// How locally buffered cross-iteration gradients are combined before the
/// collective (§3.3 uses the staleness-weighted average; §6's text mentions
/// plain summation — both are provided, plus latest-only, for ablation).
enum class LocalCombine {
  kWeightedAverage,  ///< g' = Σ(t−(k−τ)+1)·g_t / Σ(t−(k−τ)+1)
  kMean,             ///< unweighted mean of the buffered gradients
  kLatest,           ///< newest gradient only
};

/// What a worker whose gradient is not ready contributes to a triggered
/// partial collective.
enum class ContributionMode {
  /// RNA (§3.3): contribute a null gradient; the reduced sum is re-weighted
  /// by W = 1/Σw and the learning rate follows LrScalePolicy.
  kNullAndReweight,
  /// eager-SGD: re-contribute the previously sent gradient (stale), keep
  /// full averaging over N with no re-weighting — the staleness that costs
  /// eager-SGD accuracy in the paper's comparison.
  kStaleReuse,
};

/// Learning-rate adjustment when only m of N workers contribute
/// (Linear Scaling Rule, §3.3).
enum class LrScalePolicy {
  kLinear,    ///< γ_k = γ · m/N — effective batch shrinks, so does the step
  kConstant,  ///< γ_k = γ regardless of participation (ablation)
};

/// Builds one replica of the model. Every worker calls it with the *same*
/// seed so replicas start from identical parameters.
using ModelFactory =
    std::function<std::unique_ptr<nn::Network>(std::uint64_t seed)>;

/// Scripted faults for one worker rank. Iteration-indexed faults fire in the
/// worker's compute path (before computing the given 0-based local
/// iteration); round-indexed faults fire in its comm thread (on receiving
/// the Go for that round — i.e. mid-collective, the nastiest spot).
/// `kNever` (the default) disables a fault.
struct WorkerFaultSchedule {
  static constexpr std::size_t kNever = static_cast<std::size_t>(-1);

  std::size_t rank = 0;

  /// Fail-stop crash before computing this local iteration.
  std::size_t crash_at_iteration = kNever;
  /// Fail-stop crash on receiving the Go for this round — the worker is a
  /// member of the round's collective and dies without participating, so
  /// surviving members must time out and abort instead of deadlocking.
  std::size_t crash_in_round = kNever;

  /// One-shot hang: before computing this local iteration, sleep
  /// hang_for_s. A hang longer than the controller's patience gets the
  /// worker declared absent (paper's null-gradient rule), not crashed.
  std::size_t hang_at_iteration = kNever;
  double hang_for_s = 0.0;

  /// Flaky window: for local iterations in [flaky_from, flaky_until), each
  /// iteration is preceded by an extra flaky_delay_s sleep with probability
  /// flaky_prob (drawn from the worker's deterministic fault stream).
  std::size_t flaky_from_iteration = 0;
  std::size_t flaky_until_iteration = 0;
  double flaky_delay_s = 0.0;
  double flaky_prob = 0.0;

  bool HasCrash() const {
    return crash_at_iteration != kNever || crash_in_round != kNever;
  }
};

/// Fault-injection settings for a training run: network-level message
/// faults (lowered into a net::FaultPlan installed on the run's fabric),
/// per-rank worker schedules, and the recovery knobs the protocol layer
/// uses to survive them. Everything defaults to off / benign.
struct FaultConfig {
  // Probabilistic network faults applied to every message.
  double drop_prob = 0.0;
  double dup_prob = 0.0;
  double delay_prob = 0.0;
  double delay_s = 0.0;  ///< extra in-flight delay when the delay fault fires

  /// Extra drop probability for parameter-server traffic only (overrides
  /// drop_prob on the PS request/reply tags) — the "drop 10% of PS
  /// traffic" chaos scenario.
  double ps_drop_prob = 0.0;

  /// Seed for the fault plan and the per-worker fault streams; 0 derives
  /// one from TrainerConfig::seed so chaos runs replay from a single seed.
  std::uint64_t seed = 0;

  std::vector<WorkerFaultSchedule> workers;

  // Recovery knobs.
  std::size_t retry_budget = 3;      ///< PS client attempts per logical call
  double retry_timeout_s = 0.05;     ///< first PS retry wait (doubles after)
  double collective_timeout_s = 0.5; ///< per-hop ring/broadcast recv deadline
  double probe_timeout_s = 0.25;     ///< controller wait before re-election
  /// Consecutive missed round reports before the controller declares a
  /// rank dead (fail-stop) and removes it from membership for good.
  std::size_t dead_after_misses = 3;

  /// True when any fault can fire. Only DeadlinesFor (which bounds a
  /// fault-free run's waits by common::kLosslessDeadline instead of the
  /// recovery knobs) and Validate read it.
  bool Enabled() const {
    return drop_prob > 0.0 || dup_prob > 0.0 || delay_prob > 0.0 ||
           ps_drop_prob > 0.0 || !workers.empty();
  }
};

struct TrainerConfig {
  Protocol protocol = Protocol::kRna;
  std::size_t world = 4;
  std::size_t batch_size = 16;
  /// Sequence workloads use kLengthBucketed to reproduce the paper's
  /// inherent load imbalance (per-batch compute ∝ sequence length).
  data::SamplingMode sampling = data::SamplingMode::kUniform;
  nn::SgdConfig sgd;

  /// Step learning-rate schedule (§7.2: "decays to 0.1× on epochs
  /// 30/60/80"): at each listed synchronization round the learning rate is
  /// multiplied by lr_decay_factor, identically on every worker.
  std::vector<std::size_t> lr_decay_rounds;
  double lr_decay_factor = 0.1;

  // Stopping: whichever fires first.
  std::size_t max_rounds = 500;     ///< synchronization rounds
  double target_loss = -1.0;        ///< stop when eval loss <= target (if >0)
  std::size_t patience = 10;        ///< evals without improvement before stop
  double eval_period_s = 0.05;      ///< wall-clock cadence of the monitor
  std::size_t eval_samples = 256;   ///< validation subsample per eval

  // Straggler injection: per-iteration extra sleep sampled from the model,
  // multiplied by delay_scale (scale < 1 compresses the paper's
  // millisecond delays so experiments finish quickly).
  std::shared_ptr<const sim::IterationTimeModel> delay_model;
  double delay_scale = 1.0;

  // GPU-compute emulation for sequence workloads: after the (cheap, real)
  // gradient computation the worker additionally sleeps
  //   sleep_per_step · Σ_sequences L
  // so per-batch "compute" time is genuinely proportional to the batch's
  // total input length (as an RNN's is) at GPU-realistic magnitudes. Sleeps
  // overlap across workers regardless of host core count, unlike raw CPU
  // compute.
  double sleep_per_step = 0.0;

  // Collective policy: the reduction schedule every allreduce in the run
  // uses (collectives::CollectiveOptions; see rna/collectives/schedule.hpp).
  // kStragglar consumes the controller's per-round straggler verdicts to
  // re-order the ring.
  collectives::Schedule schedule = collectives::Schedule::kRing;

  // Partial-collective knobs.
  std::size_t probe_choices = 2;
  std::size_t staleness_bound = 4;
  LocalCombine combine = LocalCombine::kWeightedAverage;
  LrScalePolicy lr_policy = LrScalePolicy::kLinear;
  ContributionMode contribution = ContributionMode::kNullAndReweight;

  // Hierarchical synchronization: group calibration rounds (per-worker mean
  // iteration time is measured over this many batches before grouping) and
  // the cadence of the asynchronous PS averaging across groups (§6 leaves
  // frequency tuning open; every round is the default).
  std::size_t calibration_iters = 8;
  std::size_t ps_sync_every = 1;

  /// Deterministic pacing: the controller hands each live worker exactly one
  /// compute token per round, so every protocol's schedule (and therefore
  /// its TrainResult) is a pure function of the seeds — the precondition
  /// that makes chaos failures replayable. Free-running (false) keeps the
  /// paper's wall-clock-raced behavior.
  bool lockstep = false;

  /// Fault injection (off by default); see FaultConfig.
  FaultConfig fault;

  std::uint64_t seed = 42;
  std::uint64_t model_seed = 7;

  /// Checks the cross-field invariants every runner depends on (world > 0,
  /// probe_choices within the world, positive eval cadence, …). Returns an
  /// empty string when the config is runnable, otherwise a description of
  /// the first violation. core::RunTraining rejects invalid configs with
  /// this message; CLIs should call it before running to fail fast.
  std::string Validate() const;

 private:
  std::string ValidateFault() const;
};

}  // namespace rna::train
