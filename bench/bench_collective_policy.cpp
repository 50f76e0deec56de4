// Collective-policy sweep: schedule × protocol. Three row families, all
// emitted to BENCH_collective_policy.json by --json-out (the bench-smoke job
// gates them via tools/bench_gate.py):
//
//   comp_none_w8_256k      ring allreduce, world 8, 256k floats.
//                          wire_bytes_per_round comes from the fabric's
//                          TotalStats, a deterministic function of the hop
//                          graph (2(w−1)·w raw fp32 chunks per round), so it
//                          is gated by an exact ceiling. time_per_round_s is
//                          informational: small-message rounds on the thread
//                          fabric are too scheduler-noisy to baseline-gate.
//   sched_<name>_w8_64k    one row per reduction schedule (ring, tree,
//                          stragglar).
//   train_<proto>_none     small lockstep training runs (horovod + rna):
//                          final_loss must beat the chance-level ceiling and
//                          reached_target (final_loss <= target) must hold.
//
// Every payload is raw fp32, which the labels' `none` records.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "rna/collectives/allreduce.hpp"
#include "rna/core/rna.hpp"
#include "rna/data/generators.hpp"
#include "rna/net/fabric.hpp"
#include "rna/nn/network.hpp"

using namespace rna;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct SweepResult {
  double time_per_round_s = 0.0;
  double wire_bytes_per_round = 0.0;
};

/// Runs `iters` timed allreduce rounds (after `warmup`) and reports
/// throughput plus the per-round bytes the fabric sent.
SweepResult RunPolicyRounds(std::size_t world, std::size_t elems,
                            collectives::Schedule schedule) {
  constexpr int kWarmup = 2;
  constexpr int kIters = 8;
  net::Fabric fabric(world);
  const auto group = collectives::Group::Full(world);
  std::vector<std::vector<float>> bufs(world,
                                       std::vector<float>(elems, 1.0f));
  auto run_round = [&](int round) {
    std::vector<std::thread> threads;
    for (std::size_t r = 0; r < world; ++r) {
      threads.emplace_back([&, r] {
        collectives::CollectiveOptions opts;
        opts.schedule = schedule;
        opts.tag_base = round * 1000;
        if (schedule == collectives::Schedule::kStragglar) {
          opts.straggler = world - 1;
        }
        collectives::Allreduce({fabric, group, r}, opts, bufs[r]);
        for (auto& x : bufs[r]) x = 1.0f;  // keep values bounded
      });
    }
    for (auto& t : threads) t.join();
  };

  for (int i = 0; i < kWarmup; ++i) run_round(i);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) run_round(kWarmup + i);
  const double secs = SecondsSince(t0);

  const double rounds = kWarmup + kIters;
  SweepResult out;
  out.time_per_round_s = secs / kIters;
  out.wire_bytes_per_round =
      static_cast<double>(fabric.TotalStats().bytes_sent) / rounds;
  return out;
}

void RingRow(std::vector<benchutil::BenchRow>& rows) {
  constexpr std::size_t kWorld = 8;
  constexpr std::size_t kElems = 1u << 18;
  const SweepResult r =
      RunPolicyRounds(kWorld, kElems, collectives::Schedule::kRing);
  benchutil::BenchRow row;
  row.label = "comp_none_w8_256k";
  row.values["time_per_round_s"] = r.time_per_round_s;
  row.values["wire_bytes_per_round"] = r.wire_bytes_per_round;
  rows.push_back(row);
}

void ScheduleRows(std::vector<benchutil::BenchRow>& rows) {
  constexpr std::size_t kWorld = 8;
  constexpr std::size_t kElems = 1u << 16;
  const std::pair<collectives::Schedule, const char*> schedules[] = {
      {collectives::Schedule::kRing, "ring"},
      {collectives::Schedule::kTree, "tree"},
      {collectives::Schedule::kStragglar, "stragglar"},
  };
  for (const auto& [schedule, name] : schedules) {
    const SweepResult r = RunPolicyRounds(kWorld, kElems, schedule);
    benchutil::BenchRow row;
    row.label = std::string("sched_") + name + "_w8_64k";
    row.values["time_per_round_s"] = r.time_per_round_s;
    row.values["wire_bytes_per_round"] = r.wire_bytes_per_round;
    rows.push_back(row);
  }
}

/// Lockstep time-to-loss runs: final_loss is a pure function of the seeds,
/// so reached_target (final_loss <= target) is machine-independent.
void TrainingRows(std::vector<benchutil::BenchRow>& rows) {
  constexpr double kTargetLoss = 0.95;  // chance level for 3 classes ≈ 1.10
  data::Dataset all = data::MakeGaussianClusters(300, 6, 3, 0.3, 11);
  const auto [train_data, val_data] = all.SplitHoldout(0.2);
  const train::ModelFactory factory = [](std::uint64_t seed) {
    return std::make_unique<nn::MlpClassifier>(
        std::vector<std::size_t>{6, 12, 3}, seed);
  };
  const std::pair<train::Protocol, const char*> protocols[] = {
      {train::Protocol::kHorovod, "horovod"},
      {train::Protocol::kRna, "rna"},
  };
  for (const auto& [protocol, proto_name] : protocols) {
    train::TrainerConfig config;
    config.protocol = protocol;
    config.world = 3;
    config.batch_size = 8;
    config.max_rounds = 30;
    config.lockstep = true;
    config.target_loss = -1.0;  // run the full 30 rounds, no early stop
    config.patience = 1000000;
    const auto t0 = std::chrono::steady_clock::now();
    const train::TrainResult result =
        core::RunTraining(config, factory, train_data, val_data);
    benchutil::BenchRow row;
    row.label = std::string("train_") + proto_name + "_none";
    row.values["final_loss"] = result.final_loss;
    row.values["reached_target"] =
        result.final_loss <= kTargetLoss ? 1.0 : 0.0;
    row.values["rounds"] = static_cast<double>(result.rounds);
    row.values["wall_s"] = SecondsSince(t0);
    rows.push_back(row);
  }
}

int Run(const std::string& json_out) {
  std::vector<benchutil::BenchRow> rows;
  RingRow(rows);
  ScheduleRows(rows);
  TrainingRows(rows);
  if (!json_out.empty()) {
    benchutil::WriteBenchJson(json_out, "collective_policy", rows);
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
      std::fprintf(stderr, "usage: bench_collective_policy "
                           "[--json-out PATH]\n");
      return 2;
    }
  }
  return Run(json_out);
}
