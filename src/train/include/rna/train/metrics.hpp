#pragma once

// Result types reported by every protocol runner; the benchmark harness
// turns these into the paper's tables and figures.

#include <cstdint>
#include <vector>

#include "rna/common/clock.hpp"

namespace rna::train {

struct CurvePoint {
  common::Seconds time = 0.0;  ///< wall time since training start
  std::size_t round = 0;       ///< synchronization rounds completed
  double loss = 0.0;           ///< validation loss
  double accuracy = 0.0;       ///< validation accuracy
};

struct WorkerTimeBreakdown {
  common::Seconds compute = 0.0;  ///< forward/backward (incl. injected delay)
  common::Seconds wait = 0.0;     ///< blocked on barrier / peers / controller
  common::Seconds comm = 0.0;     ///< inside collective / exchange / PS calls
  std::size_t iterations = 0;     ///< mini-batches computed by this worker
};

struct TrainResult {
  common::Seconds wall_seconds = 0.0;
  std::size_t rounds = 0;              ///< synchronization rounds executed
  std::size_t gradients_applied = 0;   ///< worker-gradients folded in
  std::size_t gradients_dropped = 0;   ///< overwritten by the staleness bound
  bool reached_target = false;
  bool early_stopped = false;

  double final_loss = 0.0;       ///< full validation loss at the end
  double final_accuracy = 0.0;   ///< full validation accuracy at the end
  double final_train_loss = 0.0; ///< training-set loss at the end

  /// The trained model (flat parameters), for checkpointing / deployment.
  std::vector<float> final_params;

  std::vector<CurvePoint> curve;
  std::vector<WorkerTimeBreakdown> breakdown;

  /// Per synchronization round: how many workers contributed a real
  /// gradient (partial-collective protocols; empty for AD-PSGD).
  std::vector<std::size_t> round_contributors;

  /// Workers still alive at the end of the run. Equals the world size
  /// unless fault injection crashed (or death-detection excluded) workers.
  std::size_t live_workers = 0;

  /// Thread-CPU seconds the controller(s) spent doing per-round work
  /// (token dispatch, Go construction, message handling, verdicts) —
  /// waits excluded, and descheduled time excluded too, so the figure
  /// means "work done" even when worker threads oversubscribe the cores.
  /// bench_scale divides this by world × rounds to gate the per-worker
  /// controller cost as worlds grow.
  common::Seconds controller_busy_seconds = 0.0;

  /// Messages the controller(s) sent or handled across the run (step
  /// tokens, Go dispatches, acks, round reports, goodbyes). Deterministic
  /// under lockstep, so bench_scale gates per-worker flatness on this
  /// count — an O(world) dispatch regression (a controller messaging
  /// beyond its group) shows up as growth per worker-round no matter how
  /// noisy the machine's clock is.
  std::size_t controller_messages = 0;

  /// Mean number of contributors per round.
  double MeanContributors() const {
    if (round_contributors.empty()) return 0.0;
    std::size_t sum = 0;
    for (auto c : round_contributors) sum += c;
    return static_cast<double>(sum) /
           static_cast<double>(round_contributors.size());
  }

  /// Mean wall time per synchronization round.
  common::Seconds MeanRoundTime() const {
    return rounds ? wall_seconds / static_cast<double>(rounds) : 0.0;
  }
};

}  // namespace rna::train
