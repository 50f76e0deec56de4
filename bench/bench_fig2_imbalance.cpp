// Figure 2 — inherent load imbalance when training an LSTM on UCF101.
//
// (a) The video-length distribution: 13,320 videos, lengths 29–1776 frames,
//     mean 186, stddev 97.7. Regenerated from the calibrated clamped
//     log-normal model.
// (b) The per-batch training-time distribution (mean 1219 ms, stddev
//     760 ms, range 156 ms – 8 s over 2000 batches). Reproduced two ways:
//     the calibrated timing model at paper magnitudes, and *measured* wall
//     times of the real (scaled-down) LSTM on variable-length batches —
//     demonstrating that compute is genuinely proportional to sequence
//     length, not merely simulated.

#include <cstdio>

#include "rna/common/clock.hpp"
#include "rna/common/stats.hpp"
#include "rna/data/batch_generator.hpp"
#include "rna/data/generators.hpp"
#include "rna/data/shard_view.hpp"
#include "rna/nn/network.hpp"
#include "rna/sim/workload.hpp"

using namespace rna;

namespace {

void Fig2aVideoLengths() {
  std::printf("=== Figure 2(a): UCF101 video length distribution ===\n");
  const data::LengthModel model;  // paper calibration
  common::Rng rng(7);
  common::OnlineStats stats;
  common::Histogram hist(0, 800, 16);
  for (int i = 0; i < 13320; ++i) {
    const double len = static_cast<double>(model.Sample(rng));
    stats.Add(len);
    hist.Add(len);
  }
  std::printf("samples=13320  mean=%.1f (paper 186)  stddev=%.1f (paper 97.7)"
              "  min=%.0f (paper 29)  max=%.0f (paper <=1776)\n",
              stats.Mean(), stats.Stddev(), stats.Min(), stats.Max());
  std::printf("%s", hist.Render(48).c_str());
}

void Fig2bModelled() {
  std::printf("\n=== Figure 2(b): LSTM batch time distribution "
              "(calibrated model, paper magnitudes) ===\n");
  const auto model = sim::LongTailModel::LstmUcf101();
  common::Rng rng(8);
  std::vector<double> samples;
  for (int i = 0; i < 2000; ++i) samples.push_back(model.Sample(0, i, rng));
  const auto s = common::Summarize(samples);
  std::printf("batches=2000  mean=%.0f ms (paper 1219)  stddev=%.0f ms "
              "(paper 760)  min=%.0f ms (paper 156)  max=%.0f ms (paper 8000)\n",
              s.mean * 1e3, s.stddev * 1e3, s.min * 1e3, s.max * 1e3);
}

void Fig2bMeasured() {
  std::printf("\n=== Figure 2(b) companion: measured wall time of the real "
              "LSTM vs sequence length ===\n");
  const data::LengthModel lengths = data::VideoLengths(/*scale=*/8.0);
  const data::Dataset ds =
      data::MakeSequenceDataset(256, 8, 4, lengths, 0.05, 9);
  const data::ShardView view = data::ShardView::All(ds);
  nn::LstmClassifier net(8, 32, 4, 11, 0.0);

  // Measure per-batch forward+backward time and correlate with total
  // sequence length in the batch.
  common::OnlineStats times;
  double cov_acc = 0.0;
  common::OnlineStats len_stats;
  std::vector<std::pair<double, double>> points;  // (total length, seconds)
  common::Rng rng(10);
  for (int b = 0; b < 120; ++b) {
    std::vector<std::size_t> idx(8);
    for (auto& i : idx) i = rng.UniformInt(ds.Size());
    nn::Batch batch = view.MakeBatch(idx);
    double total_len = 0;
    for (const auto& seq : batch.sequences) {
      total_len += static_cast<double>(seq.Rows());
    }
    const common::Stopwatch watch;
    net.ForwardBackward(batch);
    const double t = watch.Elapsed();
    points.emplace_back(total_len, t);
    times.Add(t);
    len_stats.Add(total_len);
  }
  for (const auto& [len, t] : points) {
    cov_acc += (len - len_stats.Mean()) * (t - times.Mean());
  }
  const double corr =
      cov_acc / (static_cast<double>(points.size()) *
                 std::max(1e-12, len_stats.Stddev() * times.Stddev()));
  std::printf("batches=120  mean=%.2f ms  stddev=%.2f ms  min=%.2f ms  "
              "max=%.2f ms\n",
              times.Mean() * 1e3, times.Stddev() * 1e3, times.Min() * 1e3,
              times.Max() * 1e3);
  std::printf("corr(batch total sequence length, batch time) = %.3f "
              "(recurrent compute is ~linear in length)\n", corr);
}

void Fig2bBucketing() {
  std::printf("\n=== Figure 2(b) with/without length bucketing (measured "
              "LSTM, streaming generator) ===\n");
  // Length-bucketed batching is what produces the paper's per-batch time
  // spread: each batch is all-short or all-long, so batch times track the
  // sample length distribution instead of averaging it away. Uniform
  // batches mix lengths and flatten the spread (by roughly 1/sqrt(B)).
  const data::LengthModel lengths = data::VideoLengths(/*scale=*/8.0);
  data::Dataset ds = data::MakeSequenceDataset(256, 8, 4, lengths, 0.05, 12);
  nn::LstmClassifier net(8, 32, 4, 13, 0.0);

  for (const auto mode :
       {data::SamplingMode::kUniform, data::SamplingMode::kLengthBucketed}) {
    data::BatchGenerator gen(data::ShardView::All(ds),
                             {.batch_size = 8,
                              .seed = 14,
                              .mode = mode,
                              .prefetch_depth = 2});
    common::OnlineStats times;
    for (int b = 0; b < 120; ++b) {
      nn::Batch batch = gen.Next();
      const common::Stopwatch watch;
      net.ForwardBackward(batch);
      times.Add(watch.Elapsed());
    }
    std::printf("%-9s batches=120  mean=%.2f ms  stddev=%.2f ms  "
                "min=%.2f ms  max=%.2f ms  cv=%.2f\n",
                mode == data::SamplingMode::kUniform ? "uniform" : "bucketed",
                times.Mean() * 1e3, times.Stddev() * 1e3, times.Min() * 1e3,
                times.Max() * 1e3, times.Stddev() / times.Mean());
  }
}

}  // namespace

int main() {
  Fig2aVideoLengths();
  Fig2bModelled();
  Fig2bMeasured();
  Fig2bBucketing();
  return 0;
}
