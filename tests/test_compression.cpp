// Tests for the compressed collective policy layer:
//   - wire codec round-trips (raw bitwise; fp16/int8 within per-chunk
//     quantization bounds; top-k exact on kept values) across awkward sizes;
//   - the exact tail rides bit-for-bit through every lossy format;
//   - a malformed frame is rejected without touching the destination;
//   - top-k selection order and tie-breaking are deterministic;
//   - error feedback makes the time-averaged lossy encoding unbiased;
//   - encoding is pool-allocation-free in steady state;
//   - Parse/Name round-trips for both policy enums;
//   - schedule × compression allreduces agree across ranks on awkward
//     sizes, and tree vs ring agree exactly on integer-valued floats.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "rna/collectives/allreduce.hpp"
#include "rna/net/fabric.hpp"
#include "rna/net/wire.hpp"

namespace rna {
namespace {

using collectives::Compression;
using collectives::Group;
using collectives::Schedule;
namespace wire = net::wire;

const std::size_t kSizes[] = {0, 1, 2, 3, 5, 7, 13, 31, 97, 1000};

std::vector<float> TestVector(std::size_t n, std::uint32_t salt) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto k = static_cast<float>((i * 2654435761u + salt) % 1000);
    v[i] = (k - 500.0f) * 0.01f + 1e-4f * static_cast<float>(i % 11);
  }
  return v;
}

float MaxAbs(std::span<const float> v) {
  float m = 0.0f;
  for (const float x : v) m = std::max(m, std::fabs(x));
  return m;
}

::testing::AssertionResult BitwiseEqual(std::span<const float> a,
                                        std::span<const float> b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint32_t ba, bb;
    std::memcpy(&ba, &a[i], sizeof(ba));
    std::memcpy(&bb, &b[i], sizeof(bb));
    if (ba != bb) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// Codec round-trips.

TEST(WireCodec, RawRoundTripIsBitwiseAndHeaderless) {
  net::BufferPool pool;
  for (const std::size_t n : kSizes) {
    const auto src = TestVector(n, 1);
    auto payload = wire::Encode(pool, wire::Format::kRaw, src, {}, 0, 0);
    EXPECT_EQ(payload.size(), n) << "kRaw must not frame";
    EXPECT_TRUE(BitwiseEqual(payload, src));
    std::vector<float> dst(n, -7.0f);
    ASSERT_TRUE(wire::Decode(wire::Format::kRaw, payload, dst,
                             wire::Fold::kAssign, 0));
    EXPECT_TRUE(BitwiseEqual(dst, src)) << "n=" << n;
    pool.Recycle(std::move(payload));
  }
}

TEST(WireCodec, Fp16RoundTripWithinHalfPrecisionBound) {
  net::BufferPool pool;
  for (const std::size_t n : kSizes) {
    const auto src = TestVector(n, 2);
    auto payload = wire::Encode(pool, wire::Format::kFp16, src, {}, 0, 0);
    EXPECT_EQ(payload.size(), wire::EncodedWords(wire::Format::kFp16, n, 0, 0));
    std::vector<float> dst(n, 0.0f);
    ASSERT_TRUE(wire::Decode(wire::Format::kFp16, payload, dst,
                             wire::Fold::kAssign, 0));
    // Error budget: half precision (11-bit significand) applied to values
    // normalized by the per-chunk scale.
    const float bound = MaxAbs(src) * (1.0f / 1024.0f) + 1e-6f;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(dst[i], src[i], bound) << "n=" << n << " i=" << i;
    }
    pool.Recycle(std::move(payload));
  }
}

TEST(WireCodec, Int8RoundTripWithinQuantizationStep)  {
  net::BufferPool pool;
  for (const std::size_t n : kSizes) {
    const auto src = TestVector(n, 3);
    auto payload = wire::Encode(pool, wire::Format::kInt8, src, {}, 0, 0);
    EXPECT_EQ(payload.size(), wire::EncodedWords(wire::Format::kInt8, n, 0, 0));
    std::vector<float> dst(n, 0.0f);
    ASSERT_TRUE(wire::Decode(wire::Format::kInt8, payload, dst,
                             wire::Fold::kAssign, 0));
    // One quantization step is scale = max|v|/127; rounding keeps every
    // element within half a step (plus float slack).
    const float bound = MaxAbs(src) / 127.0f * 0.51f + 1e-6f;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(dst[i], src[i], bound) << "n=" << n << " i=" << i;
    }
    pool.Recycle(std::move(payload));
  }
}

TEST(WireCodec, TopKKeepsExactValuesAndZeroesTheRest) {
  net::BufferPool pool;
  for (const std::size_t n : kSizes) {
    const auto src = TestVector(n, 4);
    const std::size_t k = wire::TopKCount(n, 0.3);
    auto payload = wire::Encode(pool, wire::Format::kTopK, src, {}, k, 0);
    EXPECT_EQ(payload.size(), wire::EncodedWords(wire::Format::kTopK, n, k, 0));
    std::vector<float> dst(n, -1.0f);
    ASSERT_TRUE(wire::Decode(wire::Format::kTopK, payload, dst,
                             wire::Fold::kAssign, 0));
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (dst[i] != 0.0f) {
        // Kept values are transported bit-exactly, not quantized.
        ASSERT_EQ(dst[i], src[i]) << "n=" << n << " i=" << i;
        ++kept;
      }
    }
    // Every selected slot carries a value; zeros of the input may collide
    // with dropped slots, so kept ≤ k with equality for nonzero inputs.
    EXPECT_LE(kept, k);
    if (n > 0) {
      EXPECT_GT(k, 0u);
    }
    pool.Recycle(std::move(payload));
  }
}

TEST(WireCodec, TopKFullFractionIsLossless) {
  net::BufferPool pool;
  const auto src = TestVector(97, 5);
  const std::size_t k = wire::TopKCount(src.size(), 1.0);
  EXPECT_EQ(k, src.size());
  auto payload = wire::Encode(pool, wire::Format::kTopK, src, {}, k, 0);
  std::vector<float> dst(src.size(), 0.0f);
  ASSERT_TRUE(wire::Decode(wire::Format::kTopK, payload, dst,
                           wire::Fold::kAssign, 0));
  EXPECT_TRUE(BitwiseEqual(dst, src));
  pool.Recycle(std::move(payload));
}

TEST(WireCodec, TopKSelectionBreaksTiesByLowestIndex) {
  net::BufferPool pool;
  const std::vector<float> src = {1.0f, -3.0f, 2.0f, 3.0f, -3.0f};
  auto payload = wire::Encode(pool, wire::Format::kTopK, src, {}, 2, 0);
  std::vector<float> dst(src.size(), 0.0f);
  ASSERT_TRUE(wire::Decode(wire::Format::kTopK, payload, dst,
                           wire::Fold::kAssign, 0));
  // |−3| = |3| = |−3| tie for the top-2: the two lowest indices win.
  const std::vector<float> expected = {0.0f, -3.0f, 0.0f, 3.0f, 0.0f};
  EXPECT_TRUE(BitwiseEqual(dst, expected));
  pool.Recycle(std::move(payload));
}

TEST(WireCodec, DecodeAddFoldsSparseAndDense) {
  net::BufferPool pool;
  const std::vector<float> src = {1.0f, -4.0f, 2.0f, 8.0f};
  std::vector<float> dst = {10.0f, 10.0f, 10.0f, 10.0f};
  auto payload = wire::Encode(pool, wire::Format::kTopK, src, {}, 2, 0);
  ASSERT_TRUE(
      wire::Decode(wire::Format::kTopK, payload, dst, wire::Fold::kAdd, 0));
  // Top-2 by magnitude: −4 and 8 fold in; the rest stay untouched.
  const std::vector<float> expected = {10.0f, 6.0f, 10.0f, 18.0f};
  EXPECT_TRUE(BitwiseEqual(dst, expected));
  pool.Recycle(std::move(payload));
}

TEST(WireCodec, ExactTailRidesBitwiseThroughEveryFormat) {
  net::BufferPool pool;
  for (const auto f : {wire::Format::kFp16, wire::Format::kInt8,
                       wire::Format::kTopK}) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                                std::size_t{13}, std::size_t{97}}) {
      auto src = TestVector(n, 6);
      src.back() = 3.0f;  // a contributor-count-style exact payload
      const std::size_t k =
          f == wire::Format::kTopK ? wire::TopKCount(n - 1, 0.5) : 0;
      auto payload = wire::Encode(pool, f, src, {}, k, /*exact_tail=*/1);
      std::vector<float> dst(n, -1.0f);
      ASSERT_TRUE(wire::Decode(f, payload, dst, wire::Fold::kAssign,
                               /*exact_tail=*/1));
      std::uint32_t a, b;
      std::memcpy(&a, &dst.back(), sizeof(a));
      std::memcpy(&b, &src.back(), sizeof(b));
      EXPECT_EQ(a, b) << wire::FormatName(f) << " n=" << n;
      pool.Recycle(std::move(payload));
    }
  }
}

TEST(WireCodec, MalformedFramesAreRejected) {
  // A frame is a peer's bytes: each way it can be malformed must be
  // rejected before anything is written, for every format and both folds.
  constexpr std::size_t kN = 16;
  net::BufferPool pool;
  const auto src = TestVector(kN, 9);
  const auto bits = [](float w) { return std::bit_cast<std::uint32_t>(w); };
  const auto word = [](std::uint32_t u) { return std::bit_cast<float>(u); };
  for (const auto f : {wire::Format::kRaw, wire::Format::kFp16,
                       wire::Format::kInt8, wire::Format::kTopK}) {
    const std::size_t k =
        f == wire::Format::kTopK ? wire::TopKCount(kN, 0.25) : 0;
    const auto good = wire::Encode(pool, f, src, {}, k, 0);
    std::vector<std::pair<const char*, std::vector<float>>> bad = {
        {"truncated", {good.begin(), good.end() - 1}},
        {"one word", {good.front()}},
        {"header only", {good.begin(), good.begin() + 3}},
    };
    auto corrupt = [&](const char* what, std::size_t at, float value) {
      bad.emplace_back(what, good);
      bad.back().second[at] = value;
    };
    if (f != wire::Format::kRaw) {
      const std::uint32_t hdr = bits(good[0]);
      corrupt("bad magic", 0, word(hdr ^ 0x00010000u));
      corrupt("wrong format id", 0,
              word((hdr & ~0xffu) | ((hdr & 0xffu) % 3 + 1)));
      corrupt("wrong count", 1, word(kN + 1));
    }
    if (f == wire::Format::kTopK) {
      corrupt("top-k k > n", 2, word(kN + 1));
      corrupt("top-k index out of range", 3, word(kN));
    }
    for (const auto fold : {wire::Fold::kAssign, wire::Fold::kAdd}) {
      for (const auto& [what, frame] : bad) {
        std::vector<float> dst(kN, -7.0f);
        EXPECT_FALSE(wire::Decode(f, frame, dst, fold, 0))
            << wire::FormatName(f) << ": " << what;
        EXPECT_TRUE(BitwiseEqual(dst, std::vector<float>(kN, -7.0f)))
            << wire::FormatName(f) << ": " << what << " wrote into dst";
      }
    }
    std::vector<float> dst(kN);
    EXPECT_TRUE(wire::Decode(f, good, dst, wire::Fold::kAssign, 0))
        << wire::FormatName(f) << ": the intact frame";
  }
}

TEST(WireCodec, CompressedFramesAreSmaller) {
  // The point of the exercise: for realistically sized chunks the framed
  // formats beat raw by ~2× (fp16), ~4× (int8), ~1/fraction (top-k).
  const std::size_t n = 1 << 14;
  const std::size_t k = wire::TopKCount(n, 0.05);
  EXPECT_LE(wire::EncodedWords(wire::Format::kFp16, n, 0, 0), n / 2 + 4);
  EXPECT_LE(wire::EncodedWords(wire::Format::kInt8, n, 0, 0), n / 4 + 4);
  EXPECT_LE(wire::EncodedWords(wire::Format::kTopK, n, k, 0),
            2 * k + 4);
}

TEST(WireCodec, EncodeIsPoolAllocationFreeInSteadyState) {
  net::BufferPool pool;
  const auto src = TestVector(1000, 7);
  for (const auto f : {wire::Format::kRaw, wire::Format::kFp16,
                       wire::Format::kInt8, wire::Format::kTopK}) {
    const std::size_t k =
        f == wire::Format::kTopK ? wire::TopKCount(src.size(), 0.1) : 0;
    pool.Recycle(wire::Encode(pool, f, src, {}, k, 0));  // warmup
    const auto warm = pool.GetStats();
    for (int i = 0; i < 8; ++i) {
      pool.Recycle(wire::Encode(pool, f, src, {}, k, 0));
    }
    EXPECT_EQ(pool.GetStats().misses, warm.misses)
        << wire::FormatName(f) << " still allocating";
  }
}

// ---------------------------------------------------------------------------
// Error feedback.

TEST(ErrorFeedback, MakesLossyEncodingUnbiasedOverTime) {
  // The EF identity: Σ_t decode(encode(v + r_t)) = T·v − r_T, so with the
  // residual bounded the time-averaged transmitted value converges to v.
  net::BufferPool pool;
  for (const auto f : {wire::Format::kInt8, wire::Format::kTopK}) {
    const auto src = TestVector(31, 8);
    std::vector<float> residual(src.size(), 0.0f);
    std::vector<float> sum(src.size(), 0.0f);
    const int kRounds = 64;
    const std::size_t k =
        f == wire::Format::kTopK ? wire::TopKCount(src.size(), 0.2) : 0;
    for (int t = 0; t < kRounds; ++t) {
      auto payload = wire::Encode(pool, f, src, residual, k, 0);
      ASSERT_TRUE(wire::Decode(f, payload, sum, wire::Fold::kAdd, 0));
      pool.Recycle(std::move(payload));
    }
    const float bound = MaxAbs(src) * 0.05f + 1e-3f;
    for (std::size_t i = 0; i < src.size(); ++i) {
      ASSERT_NEAR(sum[i] / static_cast<float>(kRounds), src[i], bound)
          << wire::FormatName(f) << " i=" << i;
    }
  }
}

TEST(ErrorFeedback, EnsureSizePreservesOnGrowthZeroesOnShrink) {
  collectives::ErrorFeedback feedback;
  feedback.EnsureSize(4);
  EXPECT_EQ(feedback.Size(), 4u);
  feedback.All()[2] = 0.5f;
  feedback.EnsureSize(8);  // growth keeps accumulated residuals
  EXPECT_EQ(feedback.Size(), 8u);
  EXPECT_EQ(feedback.All()[2], 0.5f);
  EXPECT_EQ(feedback.All()[7], 0.0f);
  feedback.EnsureSize(3);  // shrink = new model shape: residuals reset
  EXPECT_EQ(feedback.Size(), 3u);
  EXPECT_EQ(feedback.All()[2], 0.0f);
  feedback.EnsureSize(3);
  EXPECT_EQ(feedback.Size(), 3u);
}

// ---------------------------------------------------------------------------
// Policy enums.

TEST(PolicyEnums, CompressionParseNameRoundTrip) {
  for (const auto c : {Compression::kNone, Compression::kFp16,
                       Compression::kInt8, Compression::kTopK}) {
    const auto parsed = collectives::ParseCompression(
        collectives::CompressionName(c));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, c);
  }
  EXPECT_FALSE(collectives::ParseCompression("gzip").has_value());
}

TEST(PolicyEnums, ScheduleParseNameRoundTrip) {
  for (const auto s : {Schedule::kRing, Schedule::kTree,
                       Schedule::kStragglar}) {
    const auto parsed =
        collectives::ParseSchedule(collectives::ScheduleName(s));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(collectives::ParseSchedule("butterfly").has_value());
}

// ---------------------------------------------------------------------------
// End-to-end schedule × compression allreduces.

void OnAllRanks(std::size_t world,
                const std::function<void(std::size_t)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(world);
  for (std::size_t r = 0; r < world; ++r) {
    threads.emplace_back([&, r] { body(r); });
  }
  for (auto& t : threads) t.join();
}

TEST(ScheduleAllreduce, TreeMatchesRingExactlyOnIntegerValues) {
  // Small-integer sums are exact in float regardless of fold order, so
  // tree and ring must agree bitwise even though their hop graphs differ.
  for (const std::size_t world : {std::size_t{2}, std::size_t{3},
                                  std::size_t{4}, std::size_t{7}}) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{5},
                                std::size_t{97}}) {
      std::vector<std::vector<float>> ring_data(world), tree_data(world);
      for (std::size_t r = 0; r < world; ++r) {
        ring_data[r].resize(n);
        for (std::size_t i = 0; i < n; ++i) {
          ring_data[r][i] =
              static_cast<float>((r * 7 + i * 3) % 50) - 25.0f;
        }
        tree_data[r] = ring_data[r];
      }
      net::Fabric ring_fabric(world), tree_fabric(world);
      const Group group = Group::Full(world);
      OnAllRanks(world, [&](std::size_t r) {
        collectives::CollectiveOptions ring_opts;
        ring_opts.tag_base = 50;
        collectives::Allreduce({ring_fabric, group, r}, ring_opts,
                               ring_data[r]);
        collectives::CollectiveOptions tree_opts = ring_opts;
        tree_opts.schedule = Schedule::kTree;
        collectives::Allreduce({tree_fabric, group, r}, tree_opts,
                               tree_data[r]);
      });
      for (std::size_t r = 0; r < world; ++r) {
        EXPECT_TRUE(BitwiseEqual(tree_data[r], ring_data[r]))
            << "world=" << world << " n=" << n << " rank=" << r;
      }
    }
  }
}

TEST(ScheduleAllreduce, StragglarSumsCorrectlyForEveryStragglerPosition) {
  const std::size_t world = 4, n = 23;
  for (std::size_t straggler = 0; straggler < world; ++straggler) {
    net::Fabric fabric(world);
    const Group group = Group::Full(world);
    std::vector<std::vector<float>> data(world);
    for (std::size_t r = 0; r < world; ++r) {
      data[r].assign(n, static_cast<float>(r + 1));
    }
    OnAllRanks(world, [&](std::size_t r) {
      collectives::CollectiveOptions opts;
      opts.schedule = Schedule::kStragglar;
      opts.straggler = straggler;
      opts.tag_base = 80;
      collectives::Allreduce({fabric, group, r}, opts, data[r]);
    });
    for (std::size_t r = 0; r < world; ++r) {
      for (const float x : data[r]) {
        ASSERT_EQ(x, 10.0f) << "straggler=" << straggler << " rank=" << r;
      }
    }
  }
}

using ComboParam = std::tuple<Schedule, Compression>;

class ScheduleCompressionCombo
    : public ::testing::TestWithParam<ComboParam> {};

TEST_P(ScheduleCompressionCombo, AllRanksIdenticalAndNearExactOnAwkwardSizes) {
  const auto [schedule, compression] = GetParam();
  const std::size_t world = 4;
  for (const std::size_t n : {std::size_t{1}, std::size_t{3},
                              std::size_t{5}, std::size_t{97}}) {
    net::Fabric fabric(world);
    const Group group = Group::Full(world);
    std::vector<std::vector<float>> data(world);
    std::vector<float> expected(n, 0.0f);
    for (std::size_t r = 0; r < world; ++r) {
      data[r] = TestVector(n, static_cast<std::uint32_t>(9 + r));
      for (std::size_t i = 0; i < n; ++i) expected[i] += data[r][i];
    }
    std::vector<collectives::ErrorFeedback> feedback(world);
    OnAllRanks(world, [&](std::size_t r) {
      collectives::CollectiveOptions opts;
      opts.schedule = schedule;
      opts.compression = compression;
      opts.topk_fraction = 1.0;  // keep-all: sparsity loss out of the way
      opts.feedback = &feedback[r];
      opts.tag_base = 60;
      if (schedule == Schedule::kStragglar) opts.straggler = 2;
      collectives::Allreduce({fabric, group, r}, opts, data[r]);
    });
    // Compression tolerance scales with the chunk dynamic range; keep-all
    // top-k transports exact values.
    const float scale = MaxAbs(expected);
    const float tol = compression == Compression::kNone ||
                              compression == Compression::kTopK
                          ? 1e-5f
                          : scale * 0.05f + 1e-4f;
    for (std::size_t r = 0; r < world; ++r) {
      EXPECT_TRUE(BitwiseEqual(data[r], data[0]))
          << "ranks disagree, n=" << n;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_NEAR(data[r][i], expected[i], tol)
            << "n=" << n << " rank=" << r << " i=" << i;
      }
    }
  }
}

std::string ComboName(const ::testing::TestParamInfo<ComboParam>& info) {
  const auto [schedule, compression] = info.param;
  return std::string(collectives::ScheduleName(schedule)) + "_" +
         collectives::CompressionName(compression);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ScheduleCompressionCombo,
    ::testing::Combine(::testing::Values(Schedule::kRing, Schedule::kTree,
                                         Schedule::kStragglar),
                       ::testing::Values(Compression::kNone,
                                         Compression::kFp16,
                                         Compression::kInt8,
                                         Compression::kTopK)),
    ComboName);

}  // namespace
}  // namespace rna
