// Tests for the cross-iteration gradient stage (WriteOp/ReadOp analogue)
// and the versioned parameter board.

#include <gtest/gtest.h>

#include <thread>

#include "rna/train/stage.hpp"

namespace rna::train {
namespace {

std::vector<float> Vec(std::initializer_list<float> values) { return values; }

TEST(GradientStage, EmptyDrainsNothing) {
  GradientStage stage(3, 4, LocalCombine::kWeightedAverage);
  EXPECT_FALSE(stage.HasGradient());
  EXPECT_FALSE(stage.Drain().has_value());
}

TEST(GradientStage, SingleGradientPassesThrough) {
  GradientStage stage(3, 4, LocalCombine::kWeightedAverage);
  stage.Write(Vec({1.0f, 2.0f, 3.0f}), 7);
  auto drained = stage.Drain();
  ASSERT_TRUE(drained.has_value());
  EXPECT_EQ(drained->count, 1u);
  EXPECT_EQ(drained->newest, 7);
  EXPECT_EQ(drained->oldest, 7);
  EXPECT_EQ(drained->grad, Vec({1.0f, 2.0f, 3.0f}));
  EXPECT_FALSE(stage.HasGradient());  // drain empties the buffer
}

TEST(GradientStage, WeightedAverageOfTwo) {
  // §3.3: weights are (t − oldest + 1) → iterations 5 and 6 get 1 and 2.
  GradientStage stage(2, 4, LocalCombine::kWeightedAverage);
  stage.Write(Vec({3.0f, 0.0f}), 5);
  stage.Write(Vec({9.0f, 3.0f}), 6);
  auto drained = stage.Drain();
  ASSERT_TRUE(drained.has_value());
  EXPECT_EQ(drained->count, 2u);
  // (1·3 + 2·9)/3 = 7; (1·0 + 2·3)/3 = 2.
  EXPECT_FLOAT_EQ(drained->grad[0], 7.0f);
  EXPECT_FLOAT_EQ(drained->grad[1], 2.0f);
}

TEST(GradientStage, WeightedAverageSkewsToRecency) {
  GradientStage stage(1, 8, LocalCombine::kWeightedAverage);
  stage.Write(Vec({0.0f}), 1);
  stage.Write(Vec({0.0f}), 2);
  stage.Write(Vec({10.0f}), 3);
  auto drained = stage.Drain();
  // (1·0 + 2·0 + 3·10)/6 = 5 — above the plain mean of 10/3.
  EXPECT_FLOAT_EQ(drained->grad[0], 5.0f);
}

TEST(GradientStage, MeanCombineIsUniform) {
  GradientStage stage(1, 8, LocalCombine::kMean);
  stage.Write(Vec({0.0f}), 1);
  stage.Write(Vec({10.0f}), 5);
  auto drained = stage.Drain();
  EXPECT_FLOAT_EQ(drained->grad[0], 5.0f);
}

TEST(GradientStage, LatestCombineKeepsNewest) {
  GradientStage stage(1, 8, LocalCombine::kLatest);
  stage.Write(Vec({1.0f}), 1);
  stage.Write(Vec({2.0f}), 2);
  stage.Write(Vec({3.0f}), 3);
  auto drained = stage.Drain();
  EXPECT_FLOAT_EQ(drained->grad[0], 3.0f);
  // count reports *removed* entries (readiness accounting); the two
  // discarded older gradients register as dropped.
  EXPECT_EQ(drained->count, 3u);
  EXPECT_EQ(stage.Dropped(), 2u);
}

TEST(GradientStage, BoundedStalenessOverwritesOldest) {
  GradientStage stage(1, 2, LocalCombine::kMean);
  stage.Write(Vec({1.0f}), 1);
  stage.Write(Vec({2.0f}), 2);
  stage.Write(Vec({3.0f}), 3);  // evicts iteration 1
  EXPECT_EQ(stage.Dropped(), 1u);
  auto drained = stage.Drain();
  EXPECT_EQ(drained->count, 2u);
  EXPECT_EQ(drained->oldest, 2);
  EXPECT_EQ(drained->newest, 3);
  EXPECT_FLOAT_EQ(drained->grad[0], 2.5f);
}

TEST(GradientStage, BufferedCountTracksWrites) {
  GradientStage stage(1, 3, LocalCombine::kMean);
  EXPECT_EQ(stage.BufferedCount(), 0u);
  stage.Write(Vec({1.0f}), 1);
  stage.Write(Vec({1.0f}), 2);
  EXPECT_EQ(stage.BufferedCount(), 2u);
  stage.Drain();
  EXPECT_EQ(stage.BufferedCount(), 0u);
}

TEST(GradientStage, DimensionMismatchThrows) {
  GradientStage stage(3, 2, LocalCombine::kMean);
  EXPECT_THROW(stage.Write(Vec({1.0f}), 0), std::logic_error);
}

TEST(GradientStage, ConcurrentWriteDrainIsSafe) {
  GradientStage stage(4, 4, LocalCombine::kWeightedAverage);
  std::atomic<bool> done{false};
  std::size_t drained_total = 0;
  std::thread drainer([&] {
    while (!done.load()) {
      if (auto d = stage.Drain()) drained_total += d->count;
    }
    while (auto d = stage.Drain()) drained_total += d->count;
  });
  const std::vector<float> g(4, 1.0f);
  for (int i = 0; i < 10000; ++i) stage.Write(g, i);
  done.store(true);
  drainer.join();
  EXPECT_EQ(drained_total + stage.Dropped(), 10000u);
}

TEST(GradientStage, FuzzAgainstReferenceModel) {
  // Random single-threaded op sequence checked against a simple reference
  // deque with the same bounded-staleness semantics.
  common::Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t bound = 1 + rng.UniformInt(5);
    GradientStage stage(1, bound, LocalCombine::kMean);
    std::deque<std::pair<float, std::int64_t>> reference;
    std::size_t ref_dropped = 0;
    std::int64_t iteration = 0;
    for (int op = 0; op < 200; ++op) {
      if (rng.Bernoulli(0.7)) {
        const auto value = static_cast<float>(rng.Normal(0, 1));
        stage.Write(std::vector<float>{value}, iteration);
        if (reference.size() == bound) {
          reference.pop_front();
          ++ref_dropped;
        }
        reference.emplace_back(value, iteration);
        ++iteration;
      } else {
        auto drained = stage.Drain();
        if (reference.empty()) {
          ASSERT_FALSE(drained.has_value());
        } else {
          ASSERT_TRUE(drained.has_value());
          ASSERT_EQ(drained->count, reference.size());
          EXPECT_EQ(drained->oldest, reference.front().second);
          EXPECT_EQ(drained->newest, reference.back().second);
          double mean = 0;
          for (const auto& [v, it] : reference) mean += v;
          mean /= static_cast<double>(reference.size());
          EXPECT_NEAR(drained->grad[0], mean, 1e-5);
          reference.clear();
        }
      }
      ASSERT_EQ(stage.BufferedCount(), reference.size());
      ASSERT_EQ(stage.Dropped(), ref_dropped);
    }
  }
}

TEST(ParamBoard, PublishAndRead) {
  ParamBoard board(Vec({1.0f, 2.0f}));
  std::vector<float> out(2);
  EXPECT_EQ(board.ReadIfNewer(-1, out), 0);
  EXPECT_EQ(out, Vec({1.0f, 2.0f}));

  board.Publish(Vec({3.0f, 4.0f}), 5);
  EXPECT_EQ(board.ReadIfNewer(0, out), 5);
  EXPECT_EQ(out, Vec({3.0f, 4.0f}));
}

TEST(ParamBoard, ReadIfNewerSkipsStale) {
  ParamBoard board(Vec({1.0f}));
  board.Publish(Vec({2.0f}), 3);
  std::vector<float> out = Vec({99.0f});
  EXPECT_EQ(board.ReadIfNewer(3, out), 3);
  EXPECT_EQ(out[0], 99.0f);  // untouched: nothing newer than version 3
}

TEST(ParamBoard, StalePublishIgnored) {
  ParamBoard board(Vec({1.0f}));
  board.Publish(Vec({5.0f}), 10);
  board.Publish(Vec({2.0f}), 4);  // older version, must not regress
  std::vector<float> out(1);
  EXPECT_EQ(board.ReadIfNewer(-1, out), 10);
  EXPECT_EQ(out, Vec({5.0f}));
}

TEST(ParamBoard, DimensionMismatchThrows) {
  ParamBoard board(Vec({1.0f, 2.0f}));
  EXPECT_THROW(board.Publish(Vec({1.0f}), 1), std::logic_error);
  std::vector<float> out(1);
  EXPECT_THROW(board.ReadIfNewer(-1, out), std::logic_error);
}

}  // namespace
}  // namespace rna::train
