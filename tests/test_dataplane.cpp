// Data-plane regression suite (see DESIGN.md "Data plane & memory"):
//   - the vectorized kernels in rna/common/simd.hpp are bitwise identical
//     to their scalar references, standalone and end-to-end through the
//     pooled ring / partial collectives;
//   - the sigmoid/tanh kernels also hold their special values and a 2 ulp
//     bound against a double reference;
//   - empty chunks (world > data.size()) survive fault-injected fabrics and
//     tag purges;
//   - BarrierFor honours its whole-barrier deadline, AllreduceFor its hop
//     deadline, and a malformed hop or broadcast frame fails the call;
//   - the BufferPool really makes the steady state allocation-free (hit
//     counters), and its metrics reach the registry.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <optional>
#include <thread>
#include <vector>

#include "rna/collectives/allreduce.hpp"
#include "rna/collectives/ring.hpp"
#include "rna/common/simd.hpp"
#include "rna/net/fabric.hpp"
#include "rna/net/fault.hpp"
#include "rna/obs/metrics.hpp"

namespace rna {
namespace {

using collectives::Group;

/// CollectiveOptions with just a tag base and optional per-hop deadline —
/// ring schedule.
collectives::CollectiveOptions Opts(
    int tag_base, common::Seconds hop_timeout = common::kLosslessDeadline) {
  collectives::CollectiveOptions o;
  o.tag_base = tag_base;
  o.hop_timeout = hop_timeout;
  return o;
}

/// Bitwise float comparison: NaNs and signed zeros must match exactly too.
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
             << "element " << i << ": " << a[i] << " (0x" << std::hex << ba
             << ") vs " << b[i] << " (0x" << bb << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Deterministic awkward values: mixes magnitudes and signs so rounding
/// differences between kernel paths cannot hide.
std::vector<float> TestVector(std::size_t n, std::uint32_t salt) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto k = static_cast<float>((i * 2654435761u + salt) % 1000);
    v[i] = (k - 500.0f) * 1.0009765625f + 1e-3f * static_cast<float>(i % 7);
  }
  return v;
}

/// Restores kAuto dispatch even when an assertion fails mid-test.
struct ScopedDispatch {
  explicit ScopedDispatch(common::simd::Dispatch d) {
    common::simd::SetDispatch(d);
  }
  ~ScopedDispatch() {
    common::simd::SetDispatch(common::simd::Dispatch::kAuto);
  }
};

const std::size_t kKernelSizes[] = {0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64,
                                    100, 1027};

TEST(SimdKernels, AddIntoBitwiseMatchesScalar) {
  for (const std::size_t n : kKernelSizes) {
    std::vector<float> wide = TestVector(n, 1);
    std::vector<float> narrow = wide;
    const std::vector<float> src = TestVector(n, 2);
    common::simd::detail::AddInto(wide.data(), src.data(), n);
    common::simd::scalar::AddInto(narrow, src);
    EXPECT_TRUE(BitwiseEqual(wide, narrow)) << "n=" << n;
  }
}

TEST(SimdKernels, ScaleIntoBitwiseMatchesScalar) {
  for (const std::size_t n : kKernelSizes) {
    std::vector<float> wide = TestVector(n, 3);
    std::vector<float> narrow = wide;
    common::simd::detail::ScaleInto(wide.data(), 1.0f / 3.0f, n);
    common::simd::scalar::ScaleInto(narrow, 1.0f / 3.0f);
    EXPECT_TRUE(BitwiseEqual(wide, narrow)) << "n=" << n;
  }
}

TEST(SimdKernels, WeightedAccumulateBitwiseMatchesScalar) {
  for (const std::size_t n : kKernelSizes) {
    std::vector<float> wide = TestVector(n, 4);
    std::vector<float> narrow = wide;
    const std::vector<float> src = TestVector(n, 5);
    common::simd::detail::WeightedAccumulate(wide.data(), src.data(), 2.5f,
                                             n);
    common::simd::scalar::WeightedAccumulate(narrow, src, 2.5f);
    EXPECT_TRUE(BitwiseEqual(wide, narrow)) << "n=" << n;
  }
}

TEST(SimdKernels, ScaledCopyBitwiseMatchesScalar) {
  for (const std::size_t n : kKernelSizes) {
    std::vector<float> wide(n, -1.0f), narrow(n, -1.0f);
    const std::vector<float> src = TestVector(n, 6);
    common::simd::detail::ScaledCopy(wide.data(), src.data(), 1.0f / 7.0f,
                                     n);
    common::simd::scalar::ScaledCopy(narrow, src, 1.0f / 7.0f);
    EXPECT_TRUE(BitwiseEqual(wide, narrow)) << "n=" << n;
  }
}

TEST(SimdKernels, AverageIntoBitwiseMatchesScalar) {
  for (const std::size_t n : kKernelSizes) {
    std::vector<float> wide = TestVector(n, 7);
    std::vector<float> narrow = wide;
    const std::vector<float> src = TestVector(n, 8);
    common::simd::detail::AverageInto(wide.data(), src.data(), n);
    common::simd::scalar::AverageInto(narrow, src);
    EXPECT_TRUE(BitwiseEqual(wide, narrow)) << "n=" << n;
  }
}

// ---- activation kernels ----

/// Gate-range inputs in [-10, 10] plus ±0, ±inf and saturating magnitudes
/// at a few positions, so specials land in both vector lanes and tails.
std::vector<float> ActivationVector(std::size_t n, std::uint32_t salt) {
  std::vector<float> v = TestVector(n, salt);
  const float specials[] = {0.0f, -0.0f, INFINITY, -INFINITY, 95.0f, -95.0f};
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = i % 11 == 5 ? specials[(i / 11) % std::size(specials)]
                       : v[i] / 50.0f;
  }
  return v;
}

TEST(SimdKernels, ActivationsBitwiseMatchScalarForEveryTail) {
  for (std::size_t n = 0; n <= 67; ++n) {
    const std::vector<float> x = ActivationVector(n, 9);
    std::vector<float> wide_sig(n), wide_tanh(n), ref_sig(n), ref_tanh(n);
    common::simd::Sigmoid(x.data(), wide_sig.data(), n);
    common::simd::Tanh(x.data(), wide_tanh.data(), n);
    common::simd::scalar::Sigmoid(x.data(), ref_sig.data(), n);
    common::simd::scalar::Tanh(x.data(), ref_tanh.data(), n);
    EXPECT_TRUE(BitwiseEqual(wide_sig, ref_sig)) << "sigmoid n=" << n;
    EXPECT_TRUE(BitwiseEqual(wide_tanh, ref_tanh)) << "tanh n=" << n;
  }
  // In place (y == x), as the LSTM gate pass calls them.
  std::vector<float> in_place = ActivationVector(37, 10);
  std::vector<float> ref(in_place.size());
  common::simd::scalar::Sigmoid(in_place.data(), ref.data(), ref.size());
  common::simd::Sigmoid(in_place.data(), in_place.data(), in_place.size());
  EXPECT_TRUE(BitwiseEqual(in_place, ref));
}

TEST(SimdKernels, ActivationSpecialValues) {
  const float tiny[] = {1e-8f, 1e-20f, FLT_MIN,
                        std::numeric_limits<float>::denorm_min()};
  const float huge[] = {89.0f, 100.0f, 1e30f, FLT_MAX, INFINITY};
  std::vector<float> x = {0.0f, -0.0f, NAN};
  for (const float v : tiny) {
    x.push_back(v);
    x.push_back(-v);
  }
  for (const float v : huge) {
    x.push_back(v);
    x.push_back(-v);
  }
  for (const auto dispatch :
       {common::simd::Dispatch::kAuto, common::simd::Dispatch::kScalar}) {
    ScopedDispatch scoped(dispatch);
    std::vector<float> sig(x.size()), th(x.size());
    common::simd::Sigmoid(x.data(), sig.data(), x.size());
    common::simd::Tanh(x.data(), th.data(), x.size());
    const bool wide = dispatch == common::simd::Dispatch::kAuto;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const float v = x[i];
      SCOPED_TRACE(::testing::Message() << "x=" << v << " wide=" << wide);
      if (std::isnan(v)) {
        EXPECT_TRUE(std::isnan(sig[i]));
        EXPECT_TRUE(std::isnan(th[i]));
      } else if (std::abs(v) >= 89.0f) {
        EXPECT_EQ(sig[i], v > 0 ? 1.0f : 0.0f);
        EXPECT_EQ(th[i], v > 0 ? 1.0f : -1.0f);
      } else {
        // ±0 and tiny |x|: sigmoid is 0.5 and tanh returns x itself,
        // including the sign of zero.
        EXPECT_EQ(sig[i], 0.5f);
        EXPECT_EQ(th[i], v);
        EXPECT_EQ(std::signbit(th[i]), std::signbit(v));
      }
    }
  }
}

/// Distance in representable floats between `got` and the float nearest to
/// the double reference.
std::int64_t FloatSteps(float got, double reference) {
  auto ordered = [](float f) {
    std::int32_t bits;
    std::memcpy(&bits, &f, sizeof(bits));
    return bits < 0 ? -static_cast<std::int64_t>(bits & 0x7fffffff)
                    : static_cast<std::int64_t>(bits);
  };
  return std::llabs(ordered(got) - ordered(static_cast<float>(reference)));
}

TEST(SimdKernels, ActivationsWithinTwoUlpOfDoubleReference) {
  constexpr std::size_t kPoints = 1 << 20;
  std::vector<float> x(kPoints);
  for (std::size_t i = 0; i < kPoints; ++i) {
    x[i] = -30.0f + 60.0f * static_cast<float>(i) / (kPoints - 1);
  }
  std::vector<float> sig(kPoints), th(kPoints);
  common::simd::Sigmoid(x.data(), sig.data(), kPoints);
  common::simd::Tanh(x.data(), th.data(), kPoints);
  std::int64_t worst_sig = 0;
  std::int64_t worst_tanh = 0;
  for (std::size_t i = 0; i < kPoints; ++i) {
    const double v = x[i];
    worst_sig =
        std::max(worst_sig, FloatSteps(sig[i], 1.0 / (1.0 + std::exp(-v))));
    worst_tanh = std::max(worst_tanh, FloatSteps(th[i], std::tanh(v)));
  }
  EXPECT_LE(worst_sig, 2);
  EXPECT_LE(worst_tanh, 2);
}

TEST(SimdKernels, DispatchSwitchSelectsScalar) {
  ASSERT_EQ(common::simd::ActiveDispatch(), common::simd::Dispatch::kAuto);
  {
    ScopedDispatch scoped(common::simd::Dispatch::kScalar);
    EXPECT_EQ(common::simd::ActiveDispatch(),
              common::simd::Dispatch::kScalar);
  }
  EXPECT_EQ(common::simd::ActiveDispatch(), common::simd::Dispatch::kAuto);
}

// ---------------------------------------------------------------------------
// End-to-end bitwise equivalence through the collectives. The ring folds
// chunks in a fixed step order, so for a fixed world size the result is a
// deterministic function of the inputs — the vectorized and scalar runs
// must agree bit for bit.

std::vector<std::vector<float>> RunRing(std::size_t world, std::size_t n,
                                        common::simd::Dispatch dispatch) {
  ScopedDispatch scoped(dispatch);
  net::Fabric fabric(world);
  const Group group = Group::Full(world);
  std::vector<std::vector<float>> bufs(world);
  for (std::size_t r = 0; r < world; ++r) {
    bufs[r] = TestVector(n, static_cast<std::uint32_t>(r + 1));
  }
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      collectives::Allreduce({fabric, group, r}, Opts(10), bufs[r]);
    });
  }
  for (auto& t : threads) t.join();
  return bufs;
}

TEST(DataPlaneEquivalence, RingAllreduceBitwiseAcrossSizes) {
  const std::size_t world = 4;
  // The issue's boundary sizes: empty, single element, world−1, world+1,
  // and a large non-multiple of both world and the SIMD lane width.
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, world - 1,
                              world + 1, std::size_t{4096 + 5}}) {
    const auto wide = RunRing(world, n, common::simd::Dispatch::kAuto);
    const auto narrow = RunRing(world, n, common::simd::Dispatch::kScalar);
    for (std::size_t r = 0; r < world; ++r) {
      EXPECT_TRUE(BitwiseEqual(wide[r], narrow[r]))
          << "n=" << n << " rank=" << r;
      EXPECT_TRUE(BitwiseEqual(wide[r], wide[0]))
          << "ranks disagree, n=" << n;
    }
  }
}

std::vector<std::vector<float>> RunPartial(std::size_t world, std::size_t n,
                                           common::simd::Dispatch dispatch,
                                           std::size_t* contributors) {
  ScopedDispatch scoped(dispatch);
  net::Fabric fabric(world);
  const Group group = Group::Full(world);
  std::vector<std::vector<float>> bufs(world);
  for (std::size_t r = 0; r < world; ++r) {
    bufs[r] = TestVector(n, static_cast<std::uint32_t>(100 + r));
  }
  std::vector<std::size_t> counts(world, 0);
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      const auto result = collectives::PartialAllreduceFor(
          {fabric, group, r}, Opts(10), bufs[r],
          /*contributes=*/r % 2 == 0);
      counts[r] = result.contributors;
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t r = 1; r < world; ++r) EXPECT_EQ(counts[r], counts[0]);
  *contributors = counts[0];
  return bufs;
}

TEST(DataPlaneEquivalence, PartialAllreduceBitwiseAcrossSizes) {
  const std::size_t world = 4;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, world - 1,
                              world + 1, std::size_t{1024 + 3}}) {
    std::size_t wide_count = 0, narrow_count = 0;
    const auto wide =
        RunPartial(world, n, common::simd::Dispatch::kAuto, &wide_count);
    const auto narrow =
        RunPartial(world, n, common::simd::Dispatch::kScalar, &narrow_count);
    EXPECT_EQ(wide_count, 2u);  // ranks 0 and 2 contribute
    EXPECT_EQ(wide_count, narrow_count);
    for (std::size_t r = 0; r < world; ++r) {
      EXPECT_TRUE(BitwiseEqual(wide[r], narrow[r]))
          << "n=" << n << " rank=" << r;
    }
  }
}

// ---------------------------------------------------------------------------
// world > data.size(): the tail chunks are empty and their hops carry
// zero-length payloads. Those hops must be first-class citizens — fault
// drops/dups/delays and tag purges included.

TEST(EmptyChunks, RingCorrectWithWorldLargerThanData) {
  const std::size_t world = 8;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{3}, world - 1}) {
    net::Fabric fabric(world);
    const Group group = Group::Full(world);
    std::vector<std::vector<float>> bufs(
        world, std::vector<float>(n, 1.0f));
    std::vector<std::thread> threads;
    for (std::size_t r = 0; r < world; ++r) {
      threads.emplace_back([&, r] {
        collectives::Allreduce({fabric, group, r}, Opts(10), bufs[r]);
      });
    }
    for (auto& t : threads) t.join();
    for (std::size_t r = 0; r < world; ++r) {
      for (const float x : bufs[r]) {
        EXPECT_EQ(x, static_cast<float>(world)) << "n=" << n;
      }
    }
  }
}

TEST(EmptyChunks, SurviveDropDupDelayAndPurge) {
  const std::size_t world = 4;
  const std::size_t n = 2;  // two non-empty chunks, two empty ones
  net::Fabric fabric(world);
  const Group group = Group::Full(world);

  // 30% drop + dup + delay across the first rounds' ring tags (the
  // zero-length hop payloads are matched like any other message); rounds
  // past the storm window are clean, so lockstep retries must converge.
  auto plan = std::make_shared<net::FaultPlan>(/*seed=*/7);
  net::FaultRule rule;
  rule.tag_lo = 0;
  rule.tag_hi = 4 * 64 - 1;  // first 4 rounds of a 64-tag stride
  rule.drop_prob = 0.3;
  rule.dup_prob = 0.2;
  rule.delay_prob = 0.2;
  rule.delay_s = 0.01;
  plan->AddRule(rule);
  fabric.InstallFaultPlan(plan);

  // Retries are coordinated with an in-process std::barrier: a collective
  // only completes when every member participates, so a rank must not quit
  // retrying while a peer still needs it (that was the pre-timed-ring
  // deadlock in thread form). A real protocol gets this from its
  // controller; the test uses the barrier plus a shared success count.
  constexpr int kMaxRounds = 16;
  std::barrier sync(static_cast<std::ptrdiff_t>(world));
  std::atomic<int> ok_count{0};
  std::atomic<int> done_round{-1};
  std::vector<std::vector<float>> bufs(world);
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      for (int round = 0; round < kMaxRounds; ++round) {
        const int tag_base = round * 64;
        bufs[r].assign(n, 1.0f);
        const bool ok = collectives::AllreduceFor(
            {fabric, group, r}, Opts(tag_base, /*hop_timeout=*/0.25),
            bufs[r]);
        if (ok) {
          ok_count.fetch_add(1);
        } else {
          // Aborted: purge the round's tag range (zero-length payloads
          // included) so stragglers cannot leak into the next attempt.
          fabric.Purge(r, tag_base, tag_base + 63);
        }
        sync.arrive_and_wait();
        if (r == 0 && ok_count.exchange(0) == static_cast<int>(world)) {
          done_round.store(round);
        }
        sync.arrive_and_wait();
        if (done_round.load() >= 0) return;
      }
    });
  }
  for (auto& t : threads) t.join();

  // The storm ends by round 4, so some round completed on every rank
  // simultaneously — and that round's sum is exact everywhere.
  ASSERT_GE(done_round.load(), 0) << "no round ever completed on all ranks";
  for (std::size_t r = 0; r < world; ++r) {
    for (const float x : bufs[r]) {
      EXPECT_EQ(x, static_cast<float>(world));
    }
  }
}

// ---------------------------------------------------------------------------
// BarrierFor deadline semantics.

TEST(BarrierFor, CompletesWhenEveryoneArrives) {
  const std::size_t world = 4;
  net::Fabric fabric(world);
  const Group group = Group::Full(world);
  std::vector<int> ok(world, 0);
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      ok[r] = collectives::BarrierFor(fabric, group, r, /*tag_base=*/5,
                                      /*timeout=*/5.0)
                  ? 1
                  : 0;
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t r = 0; r < world; ++r) EXPECT_EQ(ok[r], 1);
}

TEST(BarrierFor, LeaderTimesOutOnMissingMember) {
  net::Fabric fabric(2);
  const Group group = Group::Full(2);
  // Member 1 never arrives; the leader must give up by the deadline.
  EXPECT_FALSE(
      collectives::BarrierFor(fabric, group, 0, /*tag_base=*/5, 0.2));
}

TEST(BarrierFor, FollowerTimesOutOnMissingRelease) {
  net::Fabric fabric(2);
  const Group group = Group::Full(2);
  // The leader never runs, so no release ever comes.
  EXPECT_FALSE(
      collectives::BarrierFor(fabric, group, 1, /*tag_base=*/5, 0.2));
}

// ---------------------------------------------------------------------------
// BufferPool behaviour and metrics.

TEST(BufferPool, SteadyStateRingIsAllocationFree) {
  const std::size_t world = 4;
  net::Fabric fabric(world);
  const Group group = Group::Full(world);
  auto run_round = [&](int round) {
    std::vector<std::thread> threads;
    for (std::size_t r = 0; r < world; ++r) {
      threads.emplace_back([&, r] {
        std::vector<float> data(1024, 1.0f);
        collectives::Allreduce({fabric, group, r}, Opts(round * 16), data);
      });
    }
    for (auto& t : threads) t.join();
  };
  run_round(0);  // warmup populates the freelist
  const auto warm = fabric.Pool().GetStats();
  for (int round = 1; round < 5; ++round) run_round(round);
  const auto done = fabric.Pool().GetStats();
  EXPECT_EQ(done.misses, warm.misses)
      << "steady-state ring still allocating";
  EXPECT_GT(done.hits, warm.hits);
  EXPECT_GT(done.bytes_reused, warm.bytes_reused);
}

TEST(BufferPool, ZeroLengthAcquiresDoNotTouchThePool) {
  net::BufferPool pool;
  auto buffer = pool.Acquire(0);
  EXPECT_TRUE(buffer.empty());
  pool.Recycle(std::move(buffer));
  const auto stats = pool.GetStats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.recycled, 0u);
}

TEST(BufferPool, BoundedFreelistDiscardsOverflow) {
  net::BufferPool pool(/*max_buffers=*/2);
  for (int i = 0; i < 4; ++i) {
    pool.Recycle(std::vector<float>(8, 0.0f));
  }
  const auto stats = pool.GetStats();
  EXPECT_EQ(stats.recycled, 2u);
  EXPECT_EQ(stats.discarded, 2u);
}

TEST(BufferPool, ReusesRecycledCapacity) {
  net::BufferPool pool;
  pool.Recycle(std::vector<float>(64, 0.0f));
  auto buffer = pool.Acquire(32);  // fits in recycled capacity: a hit
  EXPECT_EQ(buffer.size(), 32u);
  const auto stats = pool.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.bytes_reused, 32u * sizeof(float));
}

// A model-sized request must find the model-sized buffer even when a ring
// chunk was recycled after it.
TEST(BufferPool, LargeRequestSkipsASmallerBufferRecycledLater) {
  net::BufferPool pool;
  pool.Recycle(std::vector<float>(5120, 0.0f));
  pool.Recycle(std::vector<float>(1700, 0.0f));
  const auto large = pool.Acquire(5120);
  EXPECT_GE(large.capacity(), 5120u);
  const auto stats = pool.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
}

// When both fit, a small request takes the small buffer and leaves the
// large one for the next large request.
TEST(BufferPool, SmallRequestTakesTheSmallestFittingBuffer) {
  net::BufferPool pool;
  pool.Recycle(std::vector<float>(1700, 0.0f));
  pool.Recycle(std::vector<float>(5120, 0.0f));
  const auto small = pool.Acquire(1600);
  EXPECT_EQ(small.capacity(), 1700u);
  const auto large = pool.Acquire(5120);
  EXPECT_EQ(large.capacity(), 5120u);
  const auto stats = pool.GetStats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 0u);
}

// When no pooled buffer fits, the largest one grows (a miss) and the
// smaller ones stay pooled for requests they fit.
TEST(BufferPool, GrowsTheLargestBufferWhenNoneFits) {
  net::BufferPool pool;
  pool.Recycle(std::vector<float>(16, 0.0f));
  pool.Recycle(std::vector<float>(64, 0.0f));
  pool.Recycle(std::vector<float>(32, 0.0f));
  EXPECT_EQ(pool.Acquire(128).size(), 128u);
  EXPECT_EQ(pool.Acquire(32).capacity(), 32u);
  EXPECT_EQ(pool.Acquire(16).capacity(), 16u);
  const auto stats = pool.GetStats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(BufferPool, PublishesMetricsOnShutdown) {
  obs::MetricsRegistry registry;
  obs::SetActiveMetrics(&registry);
  {
    net::Fabric fabric(2);
    const Group group = Group::Full(2);
    std::vector<std::thread> threads;
    for (std::size_t r = 0; r < 2; ++r) {
      threads.emplace_back([&, r] {
        std::vector<float> data(256, 1.0f);
        for (int round = 0; round < 3; ++round) {
          collectives::Allreduce({fabric, group, r}, Opts(round * 8),
                                 data);
        }
      });
    }
    for (auto& t : threads) t.join();
    fabric.Shutdown();
  }
  obs::SetActiveMetrics(nullptr);
  EXPECT_GT(registry.CounterValue("fabric.pool.hits"), 0);
  EXPECT_GT(registry.CounterValue("fabric.pool.bytes_reused"), 0);
  EXPECT_GT(registry.GaugeValue("fabric.pool.hit_rate"), 0.0);
}

// ---------------------------------------------------------------------------
// Wire accounting: a ring pass puts exactly its chunks' bytes on the wire,
// one message per hop with no framing.

TEST(WireAccounting, RawRingAddsNoFramingOverhead) {
  const std::size_t world = 4, n = 1024;
  net::Fabric fabric(world);
  const Group group = Group::Full(world);
  std::vector<std::vector<float>> bufs(world, std::vector<float>(n, 1.0f));
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      collectives::Allreduce({fabric, group, r}, Opts(10), bufs[r]);
    });
  }
  for (auto& t : threads) t.join();
  const net::TrafficStats total = fabric.TotalStats();
  // Each rank sends one chunk per reduce step and one per gather step:
  // 2(w−1) chunks of n/w floats, across all w ranks.
  EXPECT_EQ(total.messages_sent, 2 * (world - 1) * world);
  EXPECT_EQ(total.bytes_sent,
            2 * (world - 1) * world * (n / world) * sizeof(float));
}

// ---------------------------------------------------------------------------
// Hop deadlines and hostile frames: an absent member or a malformed frame
// fails the call (false) instead of hanging it or killing the process.

const collectives::Schedule kHopSchedules[] = {collectives::Schedule::kRing,
                                               collectives::Schedule::kTree};

TEST(AllreduceFor, TimesOutWhenAMemberIsAbsent) {
  for (const auto schedule : kHopSchedules) {
    SCOPED_TRACE(collectives::ScheduleName(schedule));
    const std::size_t world = 3;
    net::Fabric fabric(world);
    const Group group = Group::Full(world);
    collectives::CollectiveOptions opts = Opts(0, /*hop_timeout=*/0.2);
    opts.schedule = schedule;
    // Ranks 0 and 1 run the collective; rank 2 never shows up.
    std::vector<int> ok(2, 1);
    std::vector<std::thread> threads;
    for (std::size_t r = 0; r < 2; ++r) {
      threads.emplace_back([&, r] {
        std::vector<float> data(64, static_cast<float>(r + 1));
        ok[r] = collectives::AllreduceFor({fabric, group, r}, opts, data);
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(ok[0], 0);
    EXPECT_EQ(ok[1], 0);
    // The aborted call's contract: purge its whole tag range before reuse.
    for (std::size_t r = 0; r < world; ++r) {
      fabric.Purge(r, 0, collectives::TreeTagSpan(world) - 1);
    }
  }
}

TEST(AllreduceFor, RejectsAMalformedHopFrame) {
  // Rank 0 runs alone; the test plays rank 1 and answers rank 0's first
  // receive with a frame one word long, where a chunk of 4 (ring) or the
  // whole 8-float buffer (tree) is due.
  for (const auto schedule : kHopSchedules) {
    SCOPED_TRACE(collectives::ScheduleName(schedule));
    obs::MetricsRegistry registry;
    obs::SetActiveMetrics(&registry);
    net::Fabric fabric(2);
    const Group group = Group::Full(2);
    collectives::CollectiveOptions opts = Opts(40, /*hop_timeout=*/1.0);
    opts.schedule = schedule;
    // Ring: step 0's tag; tree: the root's first child, position 1.
    const int first_recv = schedule == collectives::Schedule::kTree ? 1 : 0;
    net::Message bad;
    bad.tag = opts.tag_base + first_recv;
    bad.data = {1.0f};
    fabric.Send(1, 0, std::move(bad));
    std::vector<float> data(8, 1.0f);
    EXPECT_FALSE(collectives::AllreduceFor({fabric, group, 0}, opts, data));
    obs::SetActiveMetrics(nullptr);
    // The frame was rejected before it touched the destination.
    EXPECT_EQ(data, std::vector<float>(8, 1.0f));
    EXPECT_EQ(registry.CounterValue("collectives.rejected_frames"), 1);
  }
}

TEST(BroadcastFor, RejectsAWrongSizeFrame) {
  obs::MetricsRegistry registry;
  obs::SetActiveMetrics(&registry);
  net::Fabric fabric(2);
  const Group group = Group::Full(2);
  net::Message bad;
  bad.tag = 7;
  bad.data.assign(5, 9.0f);  // the root's frame must be 4 floats long
  fabric.Send(0, 1, std::move(bad));
  std::vector<float> data(4, 1.0f);
  EXPECT_FALSE(collectives::BroadcastFor(fabric, group, /*my_index=*/1,
                                         /*root_index=*/0, data,
                                         /*tag_base=*/7, /*timeout=*/1.0));
  obs::SetActiveMetrics(nullptr);
  EXPECT_EQ(data, std::vector<float>(4, 1.0f));
  EXPECT_EQ(registry.CounterValue("collectives.rejected_frames"), 1);
}

}  // namespace
}  // namespace rna
