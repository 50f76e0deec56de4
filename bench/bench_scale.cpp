// Scale sweep: hierarchical RNA under lockstep at world sizes 10 → 1000,
// with one controller (and readiness board) per speed group and one
// parameter server. Rows emitted to BENCH_scale.json by --json-out
// (bench-smoke gates them via tools/bench_gate.py):
//
//   scale_w<N>  one lockstep rna-h run at world N. The gated figure is
//               controller_msgs_flatness_vs_w10: controller messages
//               (sent + handled) per worker per round, relative to the
//               world=10 run. The count is deterministic under lockstep,
//               and O(1) per-worker dispatch means the ratio stays flat
//               (ceiling 2.0 at world=1000) instead of growing with the
//               world. completed (rounds == max_rounds) is floor-gated:
//               the 1000-worker run must actually finish.
//
// controller_us_per_worker_round (thread-CPU time in the controller's
// dispatch/handle sections) is informational only: on an oversubscribed
// CI box the kernel's futex-wake cost per message grows with the number
// of runnable threads (measured ~4x from 16 to 2048 threads on one
// core), which would drown the algorithmic signal. The message count
// carries the gate instead.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "rna/core/rna.hpp"
#include "rna/data/generators.hpp"
#include "rna/nn/network.hpp"
#include "rna/sim/workload.hpp"
#include "rna/train/config.hpp"
#include "rna/train/metrics.hpp"

using namespace rna;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

constexpr std::size_t kRounds = 6;

/// Four deterministic speed tiers (0 / 0.5 / 1 / 1.5 ms extra) so the
/// hierarchical engine forms real speed groups at every world size.
std::shared_ptr<sim::IterationTimeModel> TieredModel(std::size_t world) {
  std::vector<common::Seconds> extra(world);
  for (std::size_t w = 0; w < world; ++w) {
    extra[w] = static_cast<double>(w % 4) * 0.0005;
  }
  return std::make_shared<sim::DeterministicSkewModel>(0.0, std::move(extra));
}

train::TrainerConfig ScaleConfig(std::size_t world) {
  train::TrainerConfig config;
  config.protocol = train::Protocol::kRnaHierarchical;
  config.world = world;
  config.batch_size = 2;
  config.max_rounds = kRounds;
  config.lockstep = true;
  config.target_loss = -1.0;  // run every round, no early stop
  config.patience = 1000000;
  config.calibration_iters = 1;
  config.delay_model = TieredModel(world);
  config.ps_sync_every = 2;
  return config;
}

struct ScalePoint {
  std::size_t world = 0;
  double us_per_worker_round = 0.0;
  double msgs_per_worker_round = 0.0;
};

void ScaleRows(std::vector<benchutil::BenchRow>& rows,
               const data::Dataset& train_data, const data::Dataset& val_data,
               const train::ModelFactory& factory) {
  constexpr std::size_t kWorlds[] = {10, 100, 500, 1000};
  std::vector<ScalePoint> points;
  for (const std::size_t world : kWorlds) {
    const train::TrainerConfig config = ScaleConfig(world);
    const auto t0 = std::chrono::steady_clock::now();
    const train::TrainResult result =
        core::RunTraining(config, factory, train_data, val_data);
    const double wall_s = SecondsSince(t0);

    const double worker_rounds =
        static_cast<double>(world) *
        static_cast<double>(result.rounds > 0 ? result.rounds : 1);
    ScalePoint p;
    p.world = world;
    p.us_per_worker_round =
        result.controller_busy_seconds * 1e6 / worker_rounds;
    p.msgs_per_worker_round =
        static_cast<double>(result.controller_messages) / worker_rounds;
    points.push_back(p);

    benchutil::BenchRow row;
    row.label = "scale_w" + std::to_string(world);
    row.values["controller_msgs_per_worker_round"] = p.msgs_per_worker_round;
    row.values["controller_msgs_flatness_vs_w10"] =
        points.front().msgs_per_worker_round > 0.0
            ? p.msgs_per_worker_round / points.front().msgs_per_worker_round
            : 0.0;
    row.values["controller_us_per_worker_round"] = p.us_per_worker_round;
    row.values["completed"] = result.rounds == kRounds ? 1.0 : 0.0;
    row.values["rounds"] = static_cast<double>(result.rounds);
    row.values["live_workers"] = static_cast<double>(result.live_workers);
    row.values["wall_s"] = wall_s;
    rows.push_back(row);
  }
}

int Run(const std::string& json_out) {
  // 3000 samples keeps every shard non-empty at world=1000 (3 per worker).
  data::Dataset all = data::MakeGaussianClusters(3000, 6, 3, 0.3, 11);
  const auto [train_data, val_data] = all.SplitHoldout(0.2);
  const train::ModelFactory factory = [](std::uint64_t seed) {
    return std::make_unique<nn::MlpClassifier>(
        std::vector<std::size_t>{6, 12, 3}, seed);
  };

  std::vector<benchutil::BenchRow> rows;
  ScaleRows(rows, train_data, val_data, factory);
  if (!json_out.empty()) {
    benchutil::WriteBenchJson(json_out, "scale", rows);
  }
  for (const auto& row : rows) {
    std::printf("%-24s", row.label.c_str());
    for (const auto& [key, value] : row.values) {
      std::printf("  %s=%.6g", key.c_str(), value);
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json-out" && i + 1 < argc) {
      json_out = argv[++i];
    } else if (arg.rfind("--json-out=", 0) == 0) {
      json_out = arg.substr(11);
    } else {
      std::fprintf(stderr, "usage: bench_scale [--json-out PATH]\n");
      return 2;
    }
  }
  return Run(json_out);
}
