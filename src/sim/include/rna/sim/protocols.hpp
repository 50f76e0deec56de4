#pragma once

// Discrete-event / round-based *timing* models of the four synchronization
// protocols the paper evaluates. These capture when synchronization happens
// and who participates — not gradient values — and are used for the
// cluster-scale experiments (Figures 1, 8, 9, 10) where running the real
// threaded runtime would be prohibitively slow. The real-concurrency
// implementations live in rna::baselines / rna::core and are used for all
// convergence results.

#include <cstdint>
#include <vector>

#include "rna/sim/comm_model.hpp"
#include "rna/sim/engine.hpp"
#include "rna/sim/workload.hpp"

namespace rna::sim {

struct SimConfig {
  std::size_t world = 8;
  std::size_t rounds = 200;            ///< synchronization rounds to simulate
  std::size_t model_bytes = 100u << 20;
  CommModel comm;
  std::uint64_t seed = 1;
};

struct WorkerBreakdown {
  Seconds compute = 0.0;  ///< time spent in forward/backward
  Seconds wait = 0.0;     ///< blocked on the barrier / peers
  Seconds comm = 0.0;     ///< in the collective / exchange itself
};

struct SimResult {
  Seconds total_time = 0.0;
  std::size_t rounds = 0;
  std::size_t gradients_applied = 0;  ///< worker-gradients folded into the model
  std::size_t gradients_dropped = 0;  ///< overwritten by the staleness bound
  std::vector<WorkerBreakdown> breakdown;

  Seconds MeanRoundTime() const {
    return rounds ? total_time / static_cast<double>(rounds) : 0.0;
  }
  double GradientThroughput() const {
    return total_time > 0.0
               ? static_cast<double>(gradients_applied) / total_time
               : 0.0;
  }
};

/// Bulk-synchronous ring allreduce (Horovod): every round waits for the
/// slowest worker, then all pay the ring cost.
SimResult SimulateBsp(const SimConfig& config, const IterationTimeModel& model);

struct RnaSimOptions {
  std::size_t probe_choices = 2;      ///< q in the power-of-q-choices election
  std::size_t staleness_bound = 4;    ///< η: max gradients buffered per worker
  Seconds probe_overhead = 0.0002;    ///< controller RPC cost per probe
};

/// RNA: continuous cross-iteration compute, controller probes q random
/// workers, collective triggers on the first reply; absent workers
/// contribute null, buffered gradients are consumed in bulk.
SimResult SimulateRna(const SimConfig& config, const IterationTimeModel& model,
                      const RnaSimOptions& options = {});

/// eager-SGD majority collective: the round triggers when ⌊N/2⌋+1 workers
/// have a gradient buffered.
SimResult SimulateEagerMajority(const SimConfig& config,
                                const IterationTimeModel& model,
                                std::size_t staleness_bound = 4);

/// AD-PSGD gossip: each worker independently computes, then performs an
/// atomic pairwise model average with a random peer (both sides' model
/// locks held for the exchange). Simulated on the event engine; runs until
/// config.rounds × world worker-iterations have completed.
SimResult SimulateAdPsgd(const SimConfig& config,
                         const IterationTimeModel& model);

/// §8.4 / Figure 10 microbenchmark: `world` workers process tasks
/// back-to-back with durations drawn from `tasks`; each round the scheduler
/// probes `choices` random workers and the round's response time is the
/// earliest probed completion (plus per-probe messaging overhead). Returns
/// one response time per round.
std::vector<double> ProbeResponseTimes(std::size_t world, std::size_t choices,
                                       std::size_t rounds,
                                       const IterationTimeModel& tasks,
                                       Seconds probe_overhead,
                                       std::uint64_t seed);

/// The §8.4 workload: tasks with "randomized skewness ranging 10–50 ms".
/// Calibrated as a heavy-tailed log-normal (mean 30 ms) that reproduces the
/// reported medians (≈28 ms for random selection, ≈12 ms for two choices).
LongTailModel ProbeBenchmarkTasks();

}  // namespace rna::sim
