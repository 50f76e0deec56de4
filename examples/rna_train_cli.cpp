// A command-line driver over the full library: pick a protocol, a workload,
// a cluster shape, and heterogeneity, and train — the "downstream user"
// entry point. Also demonstrates checkpointing.
//
//   rna_train_cli --protocol rna --workload mlp --world 6
//                 --rounds 500 --target-loss 0.6 --tiers 1,2,3
//                 --checkpoint /tmp/model.ckpt
//                 --trace-out /tmp/run.trace.json
//
// Protocols: horovod | eager | adpsgd | rna | rna-h
// Workloads: mlp | lstm | deep-lstm | attention | transformer
//
// --trace-out writes a Chrome trace-event JSON (load it at
// https://ui.perfetto.dev); --metrics-out writes one JSON object per
// metric (counters, gauges, timer distributions).

#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "rna/common/flags.hpp"
#include "rna/core/rna.hpp"
#include "rna/data/generators.hpp"
#include "rna/obs/session.hpp"
#include "rna/train/checkpoint.hpp"

using namespace rna;

namespace {

std::vector<double> ParseTiers(const std::string& csv, std::size_t world) {
  std::vector<double> tiers;
  std::stringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ',')) tiers.push_back(std::stod(item));
  if (tiers.empty()) tiers.push_back(1.0);
  // Cycle the tier list over the whole cluster.
  std::vector<double> out(world);
  for (std::size_t w = 0; w < world; ++w) out[w] = tiers[w % tiers.size()];
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const common::Flags flags(argc, argv);
  // A flag this binary does not read would otherwise be dropped silently.
  if (const std::optional<std::string> unknown = flags.Unknown(
          {"help", "protocol", "workload", "world", "data-seed", "rounds",
           "target-loss", "batch", "lr", "momentum", "probes", "staleness",
           "seed", "tiers", "jitter-ms", "checkpoint", "schedule",
           "compression", "topk-fraction", "trace-out", "metrics-out"})) {
    std::fprintf(stderr, "unknown flag: --%s\n", unknown->c_str());
    return 1;
  }
  if (flags.Has("help")) {
    std::printf(
        "usage: rna_train_cli [--protocol P] [--workload W] [--world N]\n"
        "  [--rounds K] [--target-loss L] [--batch B] [--lr R]\n"
        "  [--momentum M] [--probes Q] [--staleness H] [--seed S]\n"
        "  [--tiers 1,2,3] [--jitter-ms J] [--checkpoint PATH]\n"
        "  [--schedule ring|tree|stragglar] [--compression "
        "none|fp16|int8|topk]\n"
        "  [--topk-fraction F] [--trace-out TRACE.json] "
        "[--metrics-out METRICS.jsonl] [--data-seed D]\n");
    return 0;
  }

  const auto world = static_cast<std::size_t>(flags.GetInt("world", 4));
  const std::string workload = flags.GetString("workload", "mlp");

  // ---- data + model -------------------------------------------------------
  data::Dataset all;
  train::ModelFactory factory;
  train::TrainerConfig config;
  if (workload == "mlp") {
    all = data::MakeGaussianClusters(4000, 16, 8, 0.7,
                                     flags.GetInt("data-seed", 1));
    factory = [](std::uint64_t seed) {
      return std::make_unique<nn::MlpClassifier>(
          std::vector<std::size_t>{16, 48, 48, 32, 8}, seed);
    };
  } else if (workload == "lstm") {
    all = data::MakeSequenceDataset(960, 6, 6, data::VideoLengths(16.0), 1.2,
                                    flags.GetInt("data-seed", 1));
    factory = [](std::uint64_t seed) {
      return std::make_unique<nn::LstmClassifier>(6, 16, 6, seed, 0.0);
    };
    config.sampling = data::SamplingMode::kLengthBucketed;
    config.sleep_per_step = 50e-6;
    config.batch_size = 8;
  } else if (workload == "attention") {
    all = data::MakeSequenceDataset(960, 6, 6, data::SentenceLengths(), 1.2,
                                    flags.GetInt("data-seed", 1));
    factory = [](std::uint64_t seed) {
      return std::make_unique<nn::AttentionClassifier>(6, 16, 6, seed);
    };
    config.sampling = data::SamplingMode::kLengthBucketed;
    config.sleep_per_step = 30e-6;
    config.batch_size = 8;
  } else if (workload == "deep-lstm") {
    all = data::MakeSequenceDataset(960, 6, 6, data::VideoLengths(16.0), 1.2,
                                    flags.GetInt("data-seed", 1));
    factory = [](std::uint64_t seed) {
      return std::make_unique<nn::DeepLstmClassifier>(6, 16, 2, 6, seed);
    };
    config.sampling = data::SamplingMode::kLengthBucketed;
    config.sleep_per_step = 80e-6;  // two stacked recurrent layers
    config.batch_size = 8;
  } else if (workload == "transformer") {
    all = data::MakeSequenceDataset(960, 6, 6, data::SentenceLengths(), 1.2,
                                    flags.GetInt("data-seed", 1));
    factory = [](std::uint64_t seed) {
      return std::make_unique<nn::TransformerClassifier>(6, 16, 2, 6, seed);
    };
    config.sampling = data::SamplingMode::kLengthBucketed;
    config.sleep_per_step = 30e-6;
    config.batch_size = 8;
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", workload.c_str());
    return 1;
  }
  auto [train_data, val_data] = all.SplitHoldout(0.2);

  // ---- config -------------------------------------------------------------
  const std::string protocol_name = flags.GetString("protocol", "rna");
  const std::optional<train::Protocol> protocol =
      train::ParseProtocol(protocol_name);
  if (!protocol.has_value()) {
    std::fprintf(stderr, "unknown protocol: %s\n", protocol_name.c_str());
    return 1;
  }
  config.protocol = *protocol;
  config.world = world;
  config.batch_size =
      static_cast<std::size_t>(flags.GetInt("batch", config.batch_size));
  config.max_rounds = static_cast<std::size_t>(flags.GetInt("rounds", 500));
  config.target_loss = flags.GetDouble("target-loss", -1.0);
  config.sgd.learning_rate = flags.GetDouble("lr", 0.1);
  config.sgd.momentum = flags.GetDouble("momentum", 0.5);
  config.probe_choices =
      static_cast<std::size_t>(flags.GetInt("probes", 2));
  config.staleness_bound =
      static_cast<std::size_t>(flags.GetInt("staleness", 4));
  config.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  config.eval_period_s = 0.02;

  // Collective policy: reduction schedule and wire compression.
  const std::string schedule_name = flags.GetString("schedule", "ring");
  const std::optional<collectives::Schedule> schedule =
      collectives::ParseSchedule(schedule_name);
  if (!schedule.has_value()) {
    std::fprintf(stderr, "unknown schedule: %s\n", schedule_name.c_str());
    return 1;
  }
  config.schedule = *schedule;
  const std::string compression_name =
      flags.GetString("compression", "none");
  const std::optional<collectives::Compression> compression =
      collectives::ParseCompression(compression_name);
  if (!compression.has_value()) {
    std::fprintf(stderr, "unknown compression: %s\n",
                 compression_name.c_str());
    return 1;
  }
  config.compression = *compression;
  config.topk_fraction =
      flags.GetDouble("topk-fraction", config.topk_fraction);

  const double jitter_ms = flags.GetDouble("jitter-ms", 1.0);
  if (flags.Has("tiers") || jitter_ms > 0.0) {
    config.delay_model = std::make_shared<sim::TieredJitterModel>(
        1e-3, ParseTiers(flags.GetString("tiers", "1"), world), 0.0,
        jitter_ms * 1e-3);
  }

  if (const std::string why = config.Validate(); !why.empty()) {
    std::fprintf(stderr, "invalid configuration: %s\n", why.c_str());
    return 1;
  }

  // ---- run ----------------------------------------------------------------
  const std::string trace_out = flags.GetString("trace-out", "");
  const std::string metrics_out = flags.GetString("metrics-out", "");
  std::optional<obs::Session> session;
  if (!trace_out.empty() || !metrics_out.empty()) session.emplace();

  const train::TrainResult result =
      core::RunTraining(config, factory, train_data, val_data);

  if (session.has_value()) {
    if (!trace_out.empty()) {
      session->ExportTrace(trace_out);
      std::printf("trace written to %s (%llu spans)\n", trace_out.c_str(),
                  static_cast<unsigned long long>(
                      session->Trace().TotalRecorded()));
    }
    if (!metrics_out.empty()) {
      session->ExportMetrics(metrics_out);
      std::printf("metrics written to %s\n", metrics_out.c_str());
    }
  }

  std::printf("protocol=%s workload=%s world=%zu\n",
              train::ProtocolName(config.protocol), workload.c_str(), world);
  std::printf("rounds=%zu gradients=%zu wall=%.3fs (%.2f ms/round)\n",
              result.rounds, result.gradients_applied, result.wall_seconds,
              result.MeanRoundTime() * 1e3);
  std::printf("val loss=%.4f val acc=%.2f%% reached_target=%s\n",
              result.final_loss, result.final_accuracy * 100.0,
              result.reached_target ? "yes" : "no");
  for (std::size_t w = 0; w < result.breakdown.size(); ++w) {
    const auto& b = result.breakdown[w];
    std::printf("  worker %zu: %zu batches, compute %.3fs, wait %.3fs, "
                "comm %.3fs\n",
                w, b.iterations, b.compute, b.wait, b.comm);
  }

  const std::string ckpt = flags.GetString("checkpoint", "");
  if (!ckpt.empty()) {
    train::SaveCheckpoint(ckpt, result.final_params, {}, result.rounds);
    const train::Checkpoint loaded = train::LoadCheckpoint(ckpt);
    std::printf("checkpoint written to %s (%zu params, round %llu)\n",
                ckpt.c_str(), loaded.params.size(),
                static_cast<unsigned long long>(loaded.round));
  }
  return 0;
}
