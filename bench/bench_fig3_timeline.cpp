// Figure 3 — blocking vs non-blocking AllReduce, made concrete on the real
// threaded runtime: three workers, one persistently slow. Under BSP every
// round includes all three workers (and waits for the slowest); under RNA
// rounds trigger early and the slow worker contributes null or catches up
// with accumulated gradients in a later round.
//
// The round timeline (start, duration, contributor count) is reconstructed
// from the rna::obs trace: RNA rounds come from the controller's "round"
// spans, BSP rounds from rank 0's "allreduce" spans (every barrier round
// includes all workers by construction).
//
// Flags: --json-out BENCH_fig3.json   machine-readable rows for CI
//        --trace-out fig3.trace.json  Perfetto-loadable trace per protocol

#include <cstdio>
#include <cstring>

#include "bench_util.hpp"
#include "rna/common/flags.hpp"

using namespace rna;
using namespace rna::benchutil;

namespace {

struct RoundEvent {
  double start = 0.0;     ///< seconds since trace epoch
  double duration = 0.0;  ///< seconds
  double contributors = 0.0;
};

double ArgOr(const obs::Span& span, const char* key, double fallback) {
  for (int slot = 0; slot < 2; ++slot) {
    if (span.arg_keys[slot] != nullptr &&
        std::strcmp(span.arg_keys[slot], key) == 0) {
      return span.arg_vals[slot];
    }
  }
  return fallback;
}

/// Pulls the per-round events out of a trace snapshot. Flat RNA publishes
/// them on its one group's controller track; the BSP baseline has no
/// controller, so rank 0's allreduce spans stand in (contributors == world,
/// by definition of BSP).
std::vector<RoundEvent> RoundsFromTrace(
    const std::vector<obs::TraceRecorder::TrackView>& tracks,
    std::size_t world) {
  std::vector<RoundEvent> rounds;
  auto collect = [&](const obs::TraceRecorder::TrackView& track,
                     const char* span_name, double default_contributors) {
    for (const obs::Span& span : track.spans) {
      if (std::strcmp(span.name, span_name) != 0) continue;
      RoundEvent ev;
      ev.start = span.start;
      ev.duration = span.duration;
      ev.contributors = ArgOr(span, "contributors", default_contributors);
      rounds.push_back(ev);
    }
  };
  for (const auto& track : tracks) {
    if (track.name == "group0/controller") {
      collect(track, "round", 0.0);
      return rounds;
    }
  }
  for (const auto& track : tracks) {
    if (track.name == "worker0/sync") {
      collect(track, "allreduce", static_cast<double>(world));
    }
  }
  return rounds;
}

void Run(train::Protocol protocol, const char* label,
         const std::string& trace_out, std::vector<BenchRow>& rows) {
  NamedScenario scenario = MakeResnetProxy();
  train::TrainerConfig config = BaseBenchConfig(protocol, scenario, 3);
  config.max_rounds = 24;
  config.target_loss = -1.0;
  // Worker C (rank 2) is the straggler: 3 ms extra on a 1.5 ms base.
  config.delay_model = std::make_shared<sim::DeterministicSkewModel>(
      0.0015, std::vector<double>{0.0, 0.0005, 0.0030});

  obs::Session session;
  const train::TrainResult r = RunProtocol(protocol, scenario, config);
  const std::vector<RoundEvent> rounds =
      RoundsFromTrace(session.Trace().Snapshot(), config.world);

  std::printf("\n--- %s: %zu rounds in %.1f ms (%.2f ms/round) ---\n", label,
              r.rounds, r.wall_seconds * 1e3, r.MeanRoundTime() * 1e3);
  std::printf("timeline from trace (%zu round spans):\n", rounds.size());
  std::printf("%-7s %10s %10s %13s\n", "round", "start(ms)", "dur(ms)",
              "contributors");
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    std::printf("%-7zu %10.2f %10.2f %13.0f\n", i + 1, rounds[i].start * 1e3,
                rounds[i].duration * 1e3, rounds[i].contributors);
  }
  std::printf("mean contributors/round: %.2f of 3; gradients applied: %zu; "
              "overwritten by staleness bound: %zu\n",
              r.MeanContributors(), r.gradients_applied, r.gradients_dropped);
  std::printf("per-worker mini-batches computed:");
  for (const auto& b : r.breakdown) std::printf(" %zu", b.iterations);
  std::printf("\n");

  double mean_dur = 0.0, mean_contrib = 0.0;
  for (const RoundEvent& ev : rounds) {
    mean_dur += ev.duration;
    mean_contrib += ev.contributors;
  }
  if (!rounds.empty()) {
    mean_dur /= static_cast<double>(rounds.size());
    mean_contrib /= static_cast<double>(rounds.size());
  }
  BenchRow row;
  row.label = label;
  row.values = {{"rounds", static_cast<double>(rounds.size())},
                {"mean_round_s", mean_dur},
                {"mean_contributors", mean_contrib},
                {"wall_s", r.wall_seconds},
                {"gradients_dropped", static_cast<double>(r.gradients_dropped)}};
  rows.push_back(std::move(row));

  if (!trace_out.empty()) {
    const std::string path =
        WithRunLabel(trace_out, train::ProtocolName(protocol));
    session.ExportTrace(path);
    std::printf("trace written to %s\n", path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const common::Flags flags(argc, argv);
  const std::string json_out = flags.GetString("json-out", "");
  const std::string trace_out = flags.GetString("trace-out", "");

  std::printf("=== Figure 3: blocking vs non-blocking AllReduce timeline "
              "(3 workers, rank 2 slowed) ===\n");
  std::vector<BenchRow> rows;
  Run(train::Protocol::kHorovod, "Blocking AllReduce (BSP / Horovod)",
      trace_out, rows);
  Run(train::Protocol::kRna, "Non-blocking AllReduce (RNA)", trace_out, rows);
  std::printf("\nExpected shape: BSP rounds always show 3/3 contributors but "
              "pace at the straggler;\nRNA rounds pace at the probed fast "
              "workers with <3 contributors on average.\n");
  if (!json_out.empty()) {
    WriteBenchJson(json_out, "fig3_timeline", rows);
    std::printf("rows written to %s\n", json_out.c_str());
  }
  return 0;
}
