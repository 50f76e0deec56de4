// Tests for synthetic dataset generators, splitting, zero-copy shard views,
// and the streaming batch generator.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "rna/common/stats.hpp"
#include "rna/data/batch_generator.hpp"
#include "rna/data/generators.hpp"
#include "rna/data/shard_view.hpp"

namespace rna::data {
namespace {

TEST(Generators, GaussianClustersShapeAndLabels) {
  Dataset ds = MakeGaussianClusters(100, 8, 4, 0.5, 1);
  EXPECT_EQ(ds.Size(), 100u);
  EXPECT_FALSE(ds.IsSequence());
  EXPECT_EQ(ds.inputs.Rows(), 100u);
  EXPECT_EQ(ds.inputs.Cols(), 8u);
  std::set<std::int32_t> labels(ds.labels.begin(), ds.labels.end());
  EXPECT_EQ(labels.size(), 4u);
}

TEST(Generators, Deterministic) {
  Dataset a = MakeGaussianClusters(50, 4, 2, 0.5, 42);
  Dataset b = MakeGaussianClusters(50, 4, 2, 0.5, 42);
  for (std::size_t i = 0; i < a.inputs.Size(); ++i) {
    EXPECT_EQ(a.inputs[i], b.inputs[i]);
  }
  Dataset c = MakeGaussianClusters(50, 4, 2, 0.5, 43);
  bool differs = false;
  for (std::size_t i = 0; i < a.inputs.Size() && !differs; ++i) {
    differs = a.inputs[i] != c.inputs[i];
  }
  EXPECT_TRUE(differs);
}

TEST(Generators, TwoSpiralsBalanced) {
  Dataset ds = MakeTwoSpirals(200, 2, 0.05, 2);
  std::size_t zeros = 0;
  for (auto label : ds.labels) zeros += label == 0;
  EXPECT_EQ(zeros, 100u);
}

TEST(Generators, SequenceDatasetLengthsVary) {
  LengthModel lengths{.mean = 20, .stddev = 10, .min_len = 4, .max_len = 80};
  Dataset ds = MakeSequenceDataset(100, 6, 3, lengths, 0.1, 3);
  EXPECT_TRUE(ds.IsSequence());
  std::set<std::size_t> seen;
  for (const auto& seq : ds.sequences) {
    EXPECT_GE(seq.Rows(), 4u);
    EXPECT_LE(seq.Rows(), 80u);
    EXPECT_EQ(seq.Cols(), 6u);
    seen.insert(seq.Rows());
  }
  EXPECT_GT(seen.size(), 5u);  // genuinely variable lengths
}

TEST(LengthModel, MatchesConfiguredMoments) {
  // The Figure 2(a) distribution: mean 186, stddev 97.7, range [29, 1776].
  LengthModel m;  // defaults are the UCF101 calibration
  common::Rng rng(4);
  common::OnlineStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.Add(static_cast<double>(m.Sample(rng)));
  }
  EXPECT_NEAR(stats.Mean(), 186.0, 6.0);
  EXPECT_NEAR(stats.Stddev(), 97.7, 8.0);
  EXPECT_GE(stats.Min(), 29.0);
  EXPECT_LE(stats.Max(), 1776.0);
}

TEST(LengthModel, ScaledPreservesShape) {
  LengthModel m = VideoLengths(8.0);
  common::Rng rng(5);
  common::OnlineStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.Add(static_cast<double>(m.Sample(rng)));
  }
  EXPECT_NEAR(stats.Mean(), 186.0 / 8.0, 2.0);
}

TEST(Dataset, SplitHoldout) {
  Dataset ds = MakeGaussianClusters(100, 2, 2, 0.5, 9);
  auto [train, val] = ds.SplitHoldout(0.2);
  EXPECT_EQ(train.Size(), 80u);
  EXPECT_EQ(val.Size(), 20u);
  EXPECT_EQ(val.labels[0], ds.labels[80]);
}

TEST(ShardView, MakeBatchDense) {
  Dataset ds = MakeGaussianClusters(10, 3, 2, 0.5, 10);
  const std::size_t idx[] = {2, 7};
  nn::Batch b = ShardView::All(ds).MakeBatch(idx);
  EXPECT_EQ(b.Size(), 2u);
  EXPECT_EQ(b.inputs.At(0, 0), ds.inputs.At(2, 0));
  EXPECT_EQ(b.inputs.At(1, 2), ds.inputs.At(7, 2));
  EXPECT_EQ(b.labels[1], ds.labels[7]);
}

// --- Regression: data-plane bugs the 1000-worker worlds hit -------------
// (The empty-shard and oversized-batch cases live with ShardView and
// BatchGenerator below.)

TEST(Dataset, SplitHoldoutNeverEmptyOnSmallDatasets) {
  // floor(10 * 0.05) = 0 used to produce an empty validation set that
  // crashed downstream eval; both sides must stay non-empty.
  Dataset ds = MakeGaussianClusters(10, 2, 2, 0.5, 23);
  auto [train, val] = ds.SplitHoldout(0.05);
  EXPECT_EQ(val.Size(), 1u);
  EXPECT_EQ(train.Size(), 9u);
  // The other edge: a fraction that floors to all samples keeps >= 1 for
  // training.
  auto [train2, val2] = ds.SplitHoldout(0.999);
  EXPECT_GE(train2.Size(), 1u);
  EXPECT_GE(val2.Size(), 1u);
  EXPECT_EQ(train2.Size() + val2.Size(), 10u);
}

TEST(LengthModel, RejectsNonPositiveMeanAndNegativeStddev) {
  common::Rng rng(26);
  LengthModel zero_mean{.mean = 0.0, .stddev = 5.0};
  EXPECT_THROW(zero_mean.Sample(rng), std::logic_error);
  LengthModel negative_stddev{.mean = 10.0, .stddev = -1.0};
  EXPECT_THROW(negative_stddev.Sample(rng), std::logic_error);
}

// --- ShardView: zero-copy sharding ---------------------------------------

TEST(ShardView, StridedShardsAreDisjointAndCover) {
  Dataset ds = MakeGaussianClusters(103, 4, 2, 0.5, 27);
  std::size_t total = 0;
  std::set<std::size_t> seen;
  for (std::size_t r = 0; r < 4; ++r) {
    ShardView view = ShardView::Strided(ds, r, 4);
    EXPECT_FALSE(view.SharedFallback());
    total += view.Size();
    for (std::size_t i = 0; i < view.Size(); ++i) {
      EXPECT_EQ(view.GlobalIndex(i), r + 4 * i);
      seen.insert(view.GlobalIndex(i));
    }
  }
  EXPECT_EQ(total, 103u);
  EXPECT_EQ(seen.size(), 103u);
}

TEST(ShardView, SharesSequenceStorageInsteadOfCopying) {
  LengthModel lengths{.mean = 10, .stddev = 4, .min_len = 2, .max_len = 30};
  Dataset ds = MakeSequenceDataset(20, 3, 2, lengths, 0.1, 28);
  ShardView view = ShardView::Strided(ds, 1, 3);
  ASSERT_EQ(view.Size(), 7u);
  for (std::size_t i = 0; i < view.Size(); ++i) {
    // Pointer identity: the view's samples ARE the dataset's tensors.
    EXPECT_EQ(view.Sequence(i).Data(),
              ds.sequences[view.GlobalIndex(i)].Data());
  }
  // The per-worker footprint is the index list, far below the samples.
  EXPECT_LT(view.IndexBytes(), DatasetSampleBytes(ds) / 10);
}

TEST(ShardView, ThousandWorkerWorldDoesNotReplicateTheDataset) {
  // PR 9's 1000-worker worlds over Dataset::Shard copied the dataset
  // ×world. The views' combined extra footprint must stay below one
  // dataset's sample bytes.
  LengthModel lengths{.mean = 16, .stddev = 6, .min_len = 4, .max_len = 40};
  Dataset ds = MakeSequenceDataset(3000, 6, 3, lengths, 0.1, 29);
  const std::size_t sample_bytes = DatasetSampleBytes(ds);
  std::vector<ShardView> views;
  views.reserve(1000);
  std::size_t index_bytes = 0;
  for (std::size_t r = 0; r < 1000; ++r) {
    views.push_back(ShardView::Strided(ds, r, 1000));
    index_bytes += views.back().IndexBytes();
  }
  EXPECT_LT(index_bytes, sample_bytes / 10);
  // And every viewed sample still aliases the shared storage.
  EXPECT_EQ(views[500].Sequence(0).Data(),
            ds.sequences[views[500].GlobalIndex(0)].Data());
}

TEST(ShardView, EmptyStridedShardFallsBackToSharedSamples) {
  Dataset ds = MakeGaussianClusters(10, 4, 2, 0.5, 30);
  ShardView view = ShardView::Strided(ds, 800, 1000);
  EXPECT_TRUE(view.SharedFallback());
  EXPECT_EQ(view.Size(), 10u);
  ShardView in_range = ShardView::Strided(ds, 3, 5);
  EXPECT_FALSE(in_range.SharedFallback());
  EXPECT_EQ(in_range.Size(), 2u);
}

TEST(ShardView, RejectsInvalidRankOrWorld) {
  Dataset ds = MakeGaussianClusters(10, 2, 2, 0.5, 8);
  EXPECT_THROW(ShardView::Strided(ds, 3, 3), std::logic_error);
  EXPECT_THROW(ShardView::Strided(ds, 0, 0), std::logic_error);
}

TEST(ShardView, MakeBatchRangeMatchesMakeBatch) {
  Dataset ds = MakeGaussianClusters(30, 3, 2, 0.5, 31);
  ShardView view = ShardView::All(ds);
  nn::Batch ranged = view.MakeBatchRange(10, 5);
  const std::size_t idx[] = {10, 11, 12, 13, 14};
  nn::Batch indexed = view.MakeBatch(idx);
  ASSERT_EQ(ranged.Size(), 5u);
  EXPECT_EQ(ranged.labels, indexed.labels);
  for (std::size_t i = 0; i < ranged.inputs.Size(); ++i) {
    EXPECT_EQ(ranged.inputs[i], indexed.inputs[i]);
  }
}

// --- BatchGenerator: streaming prefetch ----------------------------------

std::vector<nn::Batch> Collect(BatchGenerator& gen, int batches) {
  std::vector<nn::Batch> out;
  out.reserve(static_cast<std::size_t>(batches));
  for (int i = 0; i < batches; ++i) out.push_back(gen.Next());
  return out;
}

void ExpectIdenticalBatchStreams(const std::vector<nn::Batch>& a,
                                 const std::vector<nn::Batch>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].labels, b[i].labels) << "batch " << i;
    ASSERT_EQ(a[i].sequences.size(), b[i].sequences.size());
    for (std::size_t s = 0; s < a[i].sequences.size(); ++s) {
      ASSERT_EQ(a[i].sequences[s].Rows(), b[i].sequences[s].Rows());
      for (std::size_t v = 0; v < a[i].sequences[s].Size(); ++v) {
        ASSERT_EQ(a[i].sequences[s][v], b[i].sequences[s][v]);
      }
    }
    ASSERT_EQ(a[i].inputs.Size(), b[i].inputs.Size());
    for (std::size_t v = 0; v < a[i].inputs.Size(); ++v) {
      ASSERT_EQ(a[i].inputs[v], b[i].inputs[v]);
    }
  }
}

TEST(BatchGenerator, PrefetchDoesNotPerturbTheBatchStream) {
  // The determinism contract: the emitted stream is bitwise-identical with
  // prefetching off (synchronous assembly) and on (background thread).
  LengthModel lengths{.mean = 15, .stddev = 8, .min_len = 2, .max_len = 50};
  Dataset ds = MakeSequenceDataset(60, 4, 2, lengths, 0.1, 32);
  for (SamplingMode mode :
       {SamplingMode::kUniform, SamplingMode::kLengthBucketed}) {
    BatchGeneratorOptions sync{.batch_size = 8, .seed = 33, .mode = mode,
                               .prefetch_depth = 0};
    BatchGeneratorOptions prefetch{.batch_size = 8, .seed = 33, .mode = mode,
                                   .prefetch_depth = 4};
    BatchGenerator a(ShardView::All(ds), sync);
    BatchGenerator b(ShardView::All(ds), prefetch);
    ExpectIdenticalBatchStreams(Collect(a, 30), Collect(b, 30));
    EXPECT_EQ(a.SynchronousAssemblies(), 30u);
    EXPECT_EQ(a.PrefetchedPops(), 0u);
    EXPECT_EQ(b.PrefetchedPops(), 30u);
    EXPECT_EQ(b.SynchronousAssemblies(), 0u);
  }
}

TEST(BatchGenerator, DensePrefetchStreamIsDeterministicToo) {
  Dataset ds = MakeGaussianClusters(50, 4, 2, 0.5, 34);
  BatchGeneratorOptions sync{.batch_size = 8, .seed = 35,
                             .prefetch_depth = 0};
  BatchGeneratorOptions prefetch{.batch_size = 8, .seed = 35,
                                 .prefetch_depth = 2};
  BatchGenerator a(ShardView::All(ds), sync);
  BatchGenerator b(ShardView::All(ds), prefetch);
  ExpectIdenticalBatchStreams(Collect(a, 20), Collect(b, 20));
}

TEST(BatchGenerator, ProducesRequestedSize) {
  Dataset ds = MakeGaussianClusters(50, 4, 2, 0.5, 11);
  BatchGenerator gen(ShardView::All(ds), {.batch_size = 8, .seed = 12});
  for (int i = 0; i < 20; ++i) {
    nn::Batch b = gen.Next();
    EXPECT_EQ(b.Size(), 8u);
    for (auto label : b.labels) {
      EXPECT_GE(label, 0);
      EXPECT_LT(label, 2);
    }
  }
}

TEST(BatchGenerator, DifferentSeedsDifferentBatches) {
  Dataset ds = MakeGaussianClusters(1000, 2, 2, 0.5, 13);
  BatchGenerator a(ShardView::All(ds), {.batch_size = 16, .seed = 1});
  BatchGenerator b(ShardView::All(ds), {.batch_size = 16, .seed = 2});
  const nn::Batch ba = a.Next(), bb = b.Next();
  bool differs = false;
  for (std::size_t i = 0; i < 16 && !differs; ++i) {
    differs = ba.inputs.At(i, 0) != bb.inputs.At(i, 0);
  }
  EXPECT_TRUE(differs);
}

TEST(BatchGenerator, BucketedFallsBackForDenseData) {
  Dataset ds = MakeGaussianClusters(50, 4, 2, 0.5, 18);
  BatchGenerator gen(ShardView::All(ds),
                     {.batch_size = 8, .seed = 19,
                      .mode = SamplingMode::kLengthBucketed});
  nn::Batch b = gen.Next();  // must not crash; behaves as uniform
  EXPECT_EQ(b.Size(), 8u);
}

TEST(BatchGenerator, BucketedBatchesGroupSimilarLengths) {
  LengthModel lengths{.mean = 30, .stddev = 25, .min_len = 2, .max_len = 200};
  Dataset ds = MakeSequenceDataset(400, 3, 2, lengths, 0.1, 36);
  BatchGeneratorOptions opt{.batch_size = 8, .seed = 37,
                            .mode = SamplingMode::kLengthBucketed,
                            .prefetch_depth = 2};
  BatchGenerator gen(ShardView::All(ds), opt);
  common::OnlineStats dataset_lengths;
  for (const auto& seq : ds.sequences) {
    dataset_lengths.Add(static_cast<double>(seq.Rows()));
  }
  double mean_batch_spread = 0.0;
  const int batches = 50;
  for (int b = 0; b < batches; ++b) {
    nn::Batch batch = gen.Next();
    std::size_t lo = batch.sequences[0].Rows(), hi = lo;
    for (const auto& seq : batch.sequences) {
      lo = std::min(lo, seq.Rows());
      hi = std::max(hi, seq.Rows());
    }
    mean_batch_spread += static_cast<double>(hi - lo) / batches;
  }
  EXPECT_LT(mean_batch_spread, dataset_lengths.Stddev());
}

TEST(BatchGenerator, BucketedBatchTimesFollowLengthDistribution) {
  // The Fig. 2 property on the streaming path: per-batch total length must
  // vary like the sample length distribution, not average out.
  LengthModel lengths{.mean = 30, .stddev = 25, .min_len = 2, .max_len = 200};
  Dataset ds = MakeSequenceDataset(400, 3, 2, lengths, 0.1, 38);
  auto batch_length_cv = [&](SamplingMode mode) {
    BatchGeneratorOptions opt{.batch_size = 8, .seed = 39, .mode = mode,
                              .prefetch_depth = 2};
    BatchGenerator gen(ShardView::All(ds), opt);
    common::OnlineStats totals;
    for (int b = 0; b < 200; ++b) {
      nn::Batch batch = gen.Next();
      double total = 0;
      for (const auto& seq : batch.sequences) {
        total += static_cast<double>(seq.Rows());
      }
      totals.Add(total);
    }
    return totals.Stddev() / totals.Mean();
  };
  EXPECT_GT(batch_length_cv(SamplingMode::kLengthBucketed),
            2.0 * batch_length_cv(SamplingMode::kUniform));
}

TEST(BatchGenerator, OversizedBatchDrawsUniformlyNotLongest) {
  // batch_size > view size: maxi-batch windows redraw uniformly, so no
  // sample — least of all the longest — dominates the emitted stream.
  LengthModel lengths{.mean = 12, .stddev = 8, .min_len = 2, .max_len = 60};
  Dataset ds = MakeSequenceDataset(6, 3, 2, lengths, 0.1, 40);
  BatchGeneratorOptions opt{.batch_size = 24, .seed = 41,
                            .mode = SamplingMode::kLengthBucketed,
                            .prefetch_depth = 0};
  BatchGenerator gen(ShardView::All(ds), opt);
  std::size_t max_len = 0;
  for (const auto& seq : ds.sequences) max_len = std::max(max_len, seq.Rows());
  std::size_t longest_count = 0, total = 0;
  for (int b = 0; b < 16; ++b) {
    nn::Batch batch = gen.Next();
    for (const auto& seq : batch.sequences) {
      ++total;
      longest_count += seq.Rows() == max_len;
    }
  }
  // Uniform draws give the longest sample ~1/6 of the slots (plus its
  // length-duplicates); the old clamp bias gave it over half.
  EXPECT_LT(static_cast<double>(longest_count),
            0.45 * static_cast<double>(total));
}

TEST(BatchGenerator, StopWhileProducerBlockedOnFullQueue) {
  Dataset ds = MakeGaussianClusters(40, 4, 2, 0.5, 42);
  BatchGeneratorOptions opt{.batch_size = 4, .seed = 43, .prefetch_depth = 1};
  auto gen = std::make_unique<BatchGenerator>(ShardView::All(ds), opt);
  // First Next() starts the producer; afterwards the producer assembles the
  // next batch and blocks pushing into the depth-1 queue.
  (void)gen->Next();
  gen.reset();  // Stop() must wake the blocked producer and join cleanly
}

TEST(BatchGenerator, DestructionWithoutConsumptionIsClean) {
  Dataset ds = MakeGaussianClusters(40, 4, 2, 0.5, 44);
  BatchGeneratorOptions opt{.batch_size = 4, .seed = 45, .prefetch_depth = 2};
  BatchGenerator gen(ShardView::All(ds), opt);
  // No Next() call: no producer thread was ever started.
}

TEST(BatchGenerator, RejectsEmptyViewAndZeroBatch) {
  Dataset ds = MakeGaussianClusters(10, 2, 2, 0.5, 46);
  Dataset empty;
  EXPECT_THROW(BatchGenerator(ShardView::All(empty), {.batch_size = 4}),
               std::logic_error);
  EXPECT_THROW(BatchGenerator(ShardView::All(ds), {.batch_size = 0}),
               std::logic_error);
}

TEST(Generators, SequenceClassesLearnableSignal) {
  // Mean per-class patterns should differ: crude separability check.
  LengthModel lengths{.mean = 20, .stddev = 5, .min_len = 10, .max_len = 40};
  Dataset ds = MakeSequenceDataset(60, 4, 2, lengths, 0.01, 14);
  double mean0 = 0, mean1 = 0;
  std::size_t n0 = 0, n1 = 0;
  for (std::size_t i = 0; i < ds.Size(); ++i) {
    const double m = ds.sequences[i].Sum() /
                     static_cast<double>(ds.sequences[i].Size());
    if (ds.labels[i] == 0) {
      mean0 += m;
      ++n0;
    } else {
      mean1 += m;
      ++n1;
    }
  }
  mean0 /= static_cast<double>(n0);
  mean1 /= static_cast<double>(n1);
  EXPECT_GT(std::abs(mean0 - mean1), 1e-3);
}

}  // namespace
}  // namespace rna::data
