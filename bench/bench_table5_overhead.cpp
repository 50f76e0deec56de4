// Table 5 — the transmission (staging-copy) overhead of RNA: the GPU→CPU
// and CPU→GPU copies RNA pays to stage gradients for the CPU-side
// collective, as a percentage of iteration time.
//
// Two views: (1) the calibrated PCIe model at paper magnitudes (full
// parameter counts); (2) the *measured* cost of the staging copies in this
// repo's worker pipeline, the §6 WriteOp/ReadOp pair a compute step pays:
// GradientStage::Write of the model's GradsFlat() and
// ParamBoard::ReadIfNewer into its ParamsFlat(). Each pair is timed
// through rna::obs as an ObserveMetric("staging.roundtrip_s/<case>")
// sample, and the table is read back from the metrics registry
// (mean/min/max over 2000 reps).
//
// Flags: --json-out BENCH_table5.json   machine-readable rows for CI

#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "rna/common/flags.hpp"
#include "rna/nn/network.hpp"
#include "rna/obs/metrics.hpp"
#include "rna/obs/session.hpp"
#include "rna/obs/trace.hpp"
#include "rna/sim/comm_model.hpp"
#include "rna/train/stage.hpp"

using namespace rna;

namespace {

void ModelledView(std::vector<benchutil::BenchRow>* rows) {
  std::printf("=== Table 5: transmission cost of RNA "
              "(calibrated PCIe model, paper magnitudes) ===\n");
  std::printf("%-14s %14s %16s %14s %12s\n", "model", "params",
              "copy/iter (ms)", "iter (ms)", "overhead");
  const sim::CopyModel copy;
  const struct {
    const char* name;
    double paper_pct;
  } specs[] = {
      {"resnet50", 6.2}, {"lstm", 3.8}, {"vgg16", 23.0}, {"transformer", 18.0}};
  for (const auto& row : specs) {
    const sim::ModelSpec& spec = sim::FindModel(row.name);
    const double copy_s = copy.RoundTrip(spec.GradientBytes());
    const double pct = copy_s / spec.base_iteration * 100.0;
    std::printf("%-14s %14zu %16.1f %14.0f %10.1f%%  (paper %.1f%%)\n",
                spec.name.c_str(), spec.parameters, copy_s * 1e3,
                spec.base_iteration * 1e3, pct, row.paper_pct);
    if (rows != nullptr) {
      rows->push_back({"modelled/" + spec.name,
                       {{"copy_per_iter_s", copy_s},
                        {"overhead_pct", pct},
                        {"paper_pct", row.paper_pct}}});
    }
  }
}

void MeasuredView(std::vector<benchutil::BenchRow>* rows) {
  std::printf("\n=== Companion: measured staging-copy cost in this repo's "
              "pipeline ===\n");
  std::printf("(GradientStage::Write of GradsFlat() + "
              "ParamBoard::ReadIfNewer into ParamsFlat() per iteration,\n"
              " each rep sampled via rna::obs, 2000 reps)\n");
  struct Case {
    const char* name;
    std::unique_ptr<nn::Network> net;
  };
  Case cases[3];
  cases[0] = {"mlp-small",
              std::make_unique<nn::MlpClassifier>(
                  std::vector<std::size_t>{16, 48, 48, 32, 8}, 1)};
  cases[1] = {"mlp-wide", std::make_unique<nn::MlpClassifier>(
                              std::vector<std::size_t>{24, 512, 6}, 2)};
  cases[2] = {"lstm", std::make_unique<nn::LstmClassifier>(8, 24, 4, 3, 0.0)};

  obs::Session session;
  for (auto& c : cases) {
    const std::size_t dim = c.net->ParamCount();
    // Bound 1: each write replaces the one buffered gradient, as in a
    // stage whose comm thread keeps up.
    train::GradientStage stage(dim, 1, train::LocalCombine::kWeightedAverage);
    const std::span<const float> init = c.net->ParamsFlat();
    const train::ParamBoard board(std::vector<float>(init.begin(), init.end()));
    const std::string metric = std::string("staging.roundtrip_s/") + c.name;
    for (int rep = 0; rep < 2000; ++rep) {
      obs::ScopedTimer timer({}, obs::Category::kOther, "staging_roundtrip");
      stage.Write(c.net->GradsFlat(), rep);
      board.ReadIfNewer(-1, c.net->ParamsFlat());
      obs::ObserveMetric(metric, timer.Stop());
    }
    const common::OnlineStats stats = session.Metrics().StatsFor(metric);
    std::printf("%-14s params=%-8zu staging copy=%8.2f us/iter "
                "(min %.2f, max %.2f over %zu reps)\n",
                c.name, dim, stats.Mean() * 1e6, stats.Min() * 1e6,
                stats.Max() * 1e6, stats.Count());
    if (rows != nullptr) {
      rows->push_back({std::string("measured/") + c.name,
                       {{"params", static_cast<double>(dim)},
                        {"mean_roundtrip_s", stats.Mean()},
                        {"min_roundtrip_s", stats.Min()},
                        {"max_roundtrip_s", stats.Max()}}});
    }
  }
  std::printf("\nThe copy cost scales with the parameter count and is "
              "independent of cluster size\n(it is local), matching the "
              "paper's observation.\n");
}

}  // namespace

int main(int argc, char** argv) {
  const common::Flags flags(argc, argv);
  const std::string json_out = flags.GetString("json-out", "");
  std::vector<benchutil::BenchRow> rows;
  ModelledView(json_out.empty() ? nullptr : &rows);
  MeasuredView(json_out.empty() ? nullptr : &rows);
  if (!json_out.empty()) {
    benchutil::WriteBenchJson(json_out, "table5_overhead", rows);
    std::printf("rows written to %s\n", json_out.c_str());
  }
  return 0;
}
