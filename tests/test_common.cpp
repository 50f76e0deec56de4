// Unit tests for rna::common — RNG determinism and distribution sanity,
// online statistics (including cross-thread merge), percentile summaries,
// histograms, the log sink under concurrency, blocking queue.

#include <gtest/gtest.h>

#include <cmath>
#include <iostream>
#include <regex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "rna/common/clock.hpp"
#include "rna/common/flags.hpp"
#include "rna/common/log.hpp"
#include "rna/common/queue.hpp"
#include "rna/common/rng.hpp"
#include "rna/common/stats.hpp"

namespace rna::common {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform(3.0, 9.0);
    EXPECT_GE(u, 3.0);
    EXPECT_LT(u, 9.0);
  }
}

TEST(Rng, UniformMeanApproximatesHalf) {
  Rng rng(11);
  OnlineStats s;
  for (int i = 0; i < 100000; ++i) s.Add(rng.Uniform());
  EXPECT_NEAR(s.Mean(), 0.5, 0.01);
  EXPECT_NEAR(s.Stddev(), std::sqrt(1.0 / 12.0), 0.01);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.UniformInt(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(19);
  OnlineStats s;
  for (int i = 0; i < 200000; ++i) s.Add(rng.Normal(2.0, 3.0));
  EXPECT_NEAR(s.Mean(), 2.0, 0.05);
  EXPECT_NEAR(s.Stddev(), 3.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(23);
  OnlineStats s;
  for (int i = 0; i < 100000; ++i) s.Add(rng.Exponential(4.0));
  EXPECT_NEAR(s.Mean(), 0.25, 0.01);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[i] = i;
  rng.Shuffle(v);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 50u);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(37);
  for (int trial = 0; trial < 100; ++trial) {
    auto sample = rng.SampleWithoutReplacement(20, 5);
    ASSERT_EQ(sample.size(), 5u);
    std::set<std::size_t> s(sample.begin(), sample.end());
    EXPECT_EQ(s.size(), 5u);
    for (auto idx : sample) EXPECT_LT(idx, 20u);
  }
}

TEST(Rng, SampleWithoutReplacementCappedAtN) {
  Rng rng(41);
  auto sample = rng.SampleWithoutReplacement(3, 10);
  EXPECT_EQ(sample.size(), 3u);
}

TEST(Rng, SampleWithoutReplacementUniform) {
  // Every index should be picked roughly equally often as the first probe.
  Rng rng(43);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) {
    ++counts[rng.SampleWithoutReplacement(10, 1)[0]];
  }
  for (int c : counts) EXPECT_NEAR(c, 5000, 350);
}

TEST(OnlineStats, MatchesDirectComputation) {
  OnlineStats s;
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  for (double x : xs) s.Add(x);
  EXPECT_EQ(s.Count(), 5u);
  EXPECT_DOUBLE_EQ(s.Mean(), 6.2);
  EXPECT_NEAR(s.Variance(), 29.76, 1e-9);
  EXPECT_EQ(s.Min(), 1.0);
  EXPECT_EQ(s.Max(), 16.0);
  EXPECT_NEAR(s.Sum(), 31.0, 1e-9);
}

TEST(OnlineStats, MergeEqualsCombined) {
  OnlineStats a, b, all;
  Rng rng(47);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Normal(0, 1);
    (i % 2 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.Count(), all.Count());
  EXPECT_NEAR(a.Mean(), all.Mean(), 1e-9);
  EXPECT_NEAR(a.Variance(), all.Variance(), 1e-9);
  EXPECT_EQ(a.Min(), all.Min());
  EXPECT_EQ(a.Max(), all.Max());
}

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.Count(), 0u);
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_EQ(s.Variance(), 0.0);
}

TEST(Percentile, KnownValues) {
  std::vector<double> xs = {10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 30.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 25), 20.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 12.5), 15.0);  // interpolated
}

TEST(Percentile, EmptyReturnsZero) {
  EXPECT_EQ(Percentile({}, 50), 0.0);
}

TEST(Percentile, RejectsOutOfRange) {
  EXPECT_THROW(Percentile({1.0}, -1), std::invalid_argument);
  EXPECT_THROW(Percentile({1.0}, 101), std::invalid_argument);
}

TEST(Summarize, OrderedFields) {
  Rng rng(53);
  std::vector<double> xs;
  for (int i = 0; i < 10000; ++i) xs.push_back(rng.Uniform());
  const auto s = Summarize(xs);
  EXPECT_EQ(s.count, 10000u);
  EXPECT_LE(s.min, s.p5);
  EXPECT_LE(s.p5, s.p25);
  EXPECT_LE(s.p25, s.median);
  EXPECT_LE(s.median, s.p75);
  EXPECT_LE(s.p75, s.p95);
  EXPECT_LE(s.p95, s.max);
  EXPECT_NEAR(s.median, 0.5, 0.02);
  EXPECT_NEAR(s.p5, 0.05, 0.02);
}

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.Add(-100.0);  // clamps into bin 0
  h.Add(0.5);
  h.Add(9.9);
  h.Add(100.0);  // clamps into last bin
  EXPECT_EQ(h.Total(), 4u);
  EXPECT_EQ(h.Count(0), 2u);
  EXPECT_EQ(h.Count(4), 2u);
  EXPECT_DOUBLE_EQ(h.BinLo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.BinHi(1), 4.0);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
}

TEST(BlockingQueue, FifoOrder) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Push(3);
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_EQ(q.Pop().value(), 3);
}

TEST(BlockingQueue, CloseWakesConsumersAndDrains) {
  BlockingQueue<int> q;
  q.Push(7);
  q.Close();
  EXPECT_FALSE(q.Push(8));           // rejected after close
  EXPECT_EQ(q.Pop().value(), 7);     // pending item still delivered
  EXPECT_FALSE(q.Pop().has_value()); // drained + closed
}

TEST(BlockingQueue, PopForTimesOut) {
  BlockingQueue<int> q;
  const Stopwatch watch;
  EXPECT_FALSE(q.PopFor(std::chrono::milliseconds(20)).has_value());
  EXPECT_GE(watch.Elapsed(), 0.015);
}

TEST(BlockingQueue, PopForWakesWhenClosedAndDrainedDuringWait) {
  BlockingQueue<int> q;
  const Stopwatch watch;
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.Close();
  });
  // The consumer is parked inside the wait when Close() lands on an empty
  // queue; it must return std::nullopt immediately, not ride out the
  // 10-second timeout.
  EXPECT_FALSE(q.PopFor(std::chrono::seconds(10)).has_value());
  EXPECT_LT(watch.Elapsed(), 5.0);
  closer.join();
}

TEST(BlockingQueue, PopForDeliversItemThatArrivesDuringWait) {
  BlockingQueue<int> q;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.Push(42);
  });
  EXPECT_EQ(q.PopFor(std::chrono::seconds(10)).value(), 42);
  producer.join();
}

TEST(BlockingQueue, EmptyAndSizeTrackContents) {
  BlockingQueue<int> q;
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.Size(), 0u);
  q.Push(1);
  q.Push(2);
  EXPECT_FALSE(q.Empty());
  EXPECT_EQ(q.Size(), 2u);
  q.TryPop();
  q.TryPop();
  EXPECT_TRUE(q.Empty());
}

TEST(BlockingQueue, CrossThreadHandoff) {
  BlockingQueue<int> q;
  std::thread producer([&] {
    for (int i = 0; i < 100; ++i) q.Push(i);
    q.Close();
  });
  int count = 0;
  while (auto v = q.Pop()) {
    EXPECT_EQ(*v, count++);
  }
  EXPECT_EQ(count, 100);
  producer.join();
}

TEST(BlockingQueue, BoundedTryPushRefusesWhenFull) {
  BlockingQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // full, not closed
  q.TryPop();
  EXPECT_TRUE(q.TryPush(3));  // space again
  q.Close();
  EXPECT_FALSE(q.TryPush(4));  // closed
}

TEST(BlockingQueue, BoundedPushBlocksUntilPopped) {
  BlockingQueue<int> q(1);
  EXPECT_TRUE(q.Push(1));
  std::atomic<bool> second_accepted{false};
  std::thread producer([&] {
    second_accepted.store(q.Push(2));  // blocks while item 1 sits unpopped
  });
  EXPECT_EQ(q.Pop(), 1);
  producer.join();
  EXPECT_TRUE(second_accepted.load());
  EXPECT_EQ(q.Pop(), 2);
}

TEST(BlockingQueue, CloseWakesBlockedBoundedProducer) {
  BlockingQueue<int> q(1);
  EXPECT_TRUE(q.Push(1));
  std::atomic<bool> push_result{true};
  std::thread producer([&] {
    push_result.store(q.Push(2));  // blocks on the full queue
  });
  q.Close();  // must wake the producer, which gives up
  producer.join();
  EXPECT_FALSE(push_result.load());
  EXPECT_EQ(q.Pop(), 1);  // pending item still drains after close
  EXPECT_EQ(q.Pop(), std::nullopt);
}

// The paper's benches accumulate per-thread OnlineStats and Merge them on
// the main thread — the supported concurrent-use pattern. Verify the merge
// of concurrently filled accumulators matches a single-threaded pass.
TEST(OnlineStats, PerThreadAccumulateThenMergeMatchesSerial) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<OnlineStats> partial(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(900 + t);
      for (int i = 0; i < kPerThread; ++i) partial[t].Add(rng.Normal(3.0, 2.0));
    });
  }
  for (auto& th : threads) th.join();

  OnlineStats merged;
  for (const auto& p : partial) merged.Merge(p);

  OnlineStats serial;
  for (int t = 0; t < kThreads; ++t) {
    Rng rng(900 + t);
    for (int i = 0; i < kPerThread; ++i) serial.Add(rng.Normal(3.0, 2.0));
  }
  EXPECT_EQ(merged.Count(), serial.Count());
  EXPECT_NEAR(merged.Mean(), serial.Mean(), 1e-9);
  EXPECT_NEAR(merged.Variance(), serial.Variance(), 1e-7);
  EXPECT_EQ(merged.Min(), serial.Min());
  EXPECT_EQ(merged.Max(), serial.Max());
}

// The log sink serializes whole lines onto stderr under its mutex:
// concurrent writers may interleave lines but never characters.
TEST(Log, ConcurrentWritersNeverInterleaveWithinALine) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;

  std::ostringstream captured;
  const LogLevel old_level = GetLogLevel();
  std::streambuf* old_buf = std::cerr.rdbuf(captured.rdbuf());
  SetLogLevel(LogLevel::kInfo);

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        Info() << "t" << t << "-m" << i << "-x";
        Debug() << "suppressed " << i;  // below threshold: discarded
      }
    });
  }
  for (auto& th : writers) th.join();

  SetLogLevel(old_level);
  std::cerr.rdbuf(old_buf);

  std::istringstream lines(captured.str());
  std::string line;
  int info_lines = 0;
  const std::regex pattern(R"(\[INFO\] t\d+-m\d+-x)");
  while (std::getline(lines, line)) {
    EXPECT_TRUE(std::regex_match(line, pattern)) << "mangled line: " << line;
    ++info_lines;
  }
  EXPECT_EQ(info_lines, kThreads * kPerThread);
}

TEST(Log, LevelChangesAreVisibleAcrossThreads) {
  const LogLevel old_level = GetLogLevel();
  std::thread setter([] { SetLogLevel(LogLevel::kError); });
  setter.join();
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(old_level);
}

TEST(Clock, StopwatchMeasuresSleep) {
  const Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const Seconds t = watch.Elapsed();
  EXPECT_GE(t, 0.025);
  EXPECT_LT(t, 0.5);
}

TEST(Clock, SecondsRoundTrip) {
  EXPECT_NEAR(ToSeconds(FromSeconds(1.5)), 1.5, 1e-9);
}

TEST(Flags, UnknownNamesTheFirstUnlistedFlag) {
  const char* argv[] = {"prog", "--world", "4", "--zeta", "--join=4@2",
                        "pos", "--lockstep"};
  const Flags flags(static_cast<int>(std::size(argv)), argv);
  using Name = std::optional<std::string>;
  EXPECT_EQ(flags.Unknown({"world", "zeta", "join", "lockstep"}), Name());
  // Name order, not command-line order.
  EXPECT_EQ(flags.Unknown({"world", "zeta"}), Name("join"));
  EXPECT_EQ(flags.Unknown({"world", "join", "lockstep"}), Name("zeta"));
  // Positional arguments and flag values are not flags.
  EXPECT_EQ(flags.Unknown({"world", "zeta", "join", "lockstep", "4", "pos"}),
            Name());
  EXPECT_EQ(Flags(1, argv).Unknown({}), Name());
}

}  // namespace
}  // namespace rna::common
