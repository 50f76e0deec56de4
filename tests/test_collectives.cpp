// Tests for the collectives: correctness of allreduce across world sizes
// and buffer sizes (including buffers smaller than the ring), every
// schedule (ring, tree, stragglar) agreeing across ranks on awkward sizes,
// the partial allreduce's contributor weighting, broadcast, and barrier.
// Every test launches real threads — the collectives are cooperative.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <thread>

#include "rna/collectives/allreduce.hpp"
#include "rna/collectives/ring.hpp"
#include "rna/common/rng.hpp"

namespace rna::collectives {
namespace {

/// CollectiveOptions with just a tag base — ring schedule.
CollectiveOptions Opts(int tag_base) {
  CollectiveOptions o;
  o.tag_base = tag_base;
  return o;
}

/// Runs `body(rank)` on `world` threads and joins them.
void OnAllRanks(std::size_t world,
                const std::function<void(std::size_t)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(world);
  for (std::size_t r = 0; r < world; ++r) {
    threads.emplace_back([&, r] { body(r); });
  }
  for (auto& t : threads) t.join();
}

std::vector<float> TestVector(std::size_t n, std::uint32_t salt) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto k = static_cast<float>((i * 2654435761u + salt) % 1000);
    v[i] = (k - 500.0f) * 0.01f + 1e-4f * static_cast<float>(i % 11);
  }
  return v;
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

TEST(Group, FullAndIndexOf) {
  Group g = Group::Full(4);
  EXPECT_EQ(g.Size(), 4u);
  EXPECT_EQ(g.IndexOf(2), 2u);
  Group sub;
  sub.members = {5, 1, 3};
  EXPECT_EQ(sub.IndexOf(3), 2u);
  EXPECT_THROW(sub.IndexOf(7), std::logic_error);
}

TEST(RingAllreduce, SumsAcrossRanks) {
  const std::size_t world = 4, n = 64;
  net::Fabric fabric(world);
  const Group group = Group::Full(world);
  std::vector<std::vector<float>> data(world, std::vector<float>(n));
  for (std::size_t r = 0; r < world; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      data[r][i] = static_cast<float>(r * 100 + i);
    }
  }
  OnAllRanks(world, [&](std::size_t r) {
    Allreduce({fabric, group, r}, Opts(1000), data[r]);
  });
  for (std::size_t r = 0; r < world; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      // Σ_w (w*100 + i) = 600 + 4i for world=4.
      EXPECT_FLOAT_EQ(data[r][i], 600.0f + 4.0f * static_cast<float>(i));
    }
  }
}

TEST(RingAllreduce, SingleRankIsNoOp) {
  net::Fabric fabric(1);
  const Group group = Group::Full(1);
  std::vector<float> data = {1.0f, 2.0f};
  Allreduce({fabric, group, 0}, Opts(1000), data);
  EXPECT_EQ(data[0], 1.0f);
}

TEST(RingAllreduce, IdenticalResultOnAllRanks) {
  const std::size_t world = 5, n = 37;
  net::Fabric fabric(world);
  const Group group = Group::Full(world);
  common::Rng rng(3);
  std::vector<std::vector<float>> data(world, std::vector<float>(n));
  for (auto& v : data) {
    for (auto& x : v) x = static_cast<float>(rng.Normal(0, 1));
  }
  OnAllRanks(world, [&](std::size_t r) {
    Allreduce({fabric, group, r}, Opts(1000), data[r]);
  });
  for (std::size_t r = 1; r < world; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      // Bitwise identical — replicas must stay in lockstep.
      EXPECT_EQ(data[r][i], data[0][i]);
    }
  }
}

TEST(RingAllreduce, SubgroupOfFabric) {
  // A ring over a strict subset of endpoints (the hierarchical case).
  net::Fabric fabric(6);
  Group group;
  group.members = {1, 3, 5};
  std::vector<std::vector<float>> data(3, std::vector<float>(8, 1.0f));
  OnAllRanks(3, [&](std::size_t idx) {
    Allreduce({fabric, group, idx}, Opts(1000), data[idx]);
  });
  for (const auto& v : data) {
    for (float x : v) EXPECT_FLOAT_EQ(x, 3.0f);
  }
}

TEST(RingAllreduce, BackToBackRoundsWithParityTags) {
  const std::size_t world = 3, n = 16;
  net::Fabric fabric(world);
  const Group group = Group::Full(world);
  std::vector<std::vector<float>> data(world, std::vector<float>(n, 1.0f));
  OnAllRanks(world, [&](std::size_t r) {
    for (std::size_t round = 0; round < 10; ++round) {
      Allreduce({fabric, group, r},
                Opts(1000 + static_cast<int>(round % 2) * 100), data[r]);
    }
  });
  // Each round multiplies every element by world: 3^10.
  for (float x : data[0]) EXPECT_FLOAT_EQ(x, std::pow(3.0f, 10.0f));
}

TEST(RingPartialAllreduce, AllContributeEqualsAverage) {
  const std::size_t world = 4, n = 32;
  net::Fabric fabric(world);
  const Group group = Group::Full(world);
  std::vector<std::vector<float>> data(world, std::vector<float>(n));
  for (std::size_t r = 0; r < world; ++r) {
    std::fill(data[r].begin(), data[r].end(), static_cast<float>(r + 1));
  }
  std::vector<PartialResult> results(world);
  OnAllRanks(world, [&](std::size_t r) {
    results[r] =
        PartialAllreduceFor({fabric, group, r}, Opts(1000), data[r], true);
  });
  for (std::size_t r = 0; r < world; ++r) {
    EXPECT_EQ(results[r].contributors, 4u);
    for (float x : data[r]) EXPECT_FLOAT_EQ(x, 2.5f);  // mean of 1..4
  }
}

TEST(RingPartialAllreduce, PartialParticipationReweights) {
  const std::size_t world = 4, n = 16;
  net::Fabric fabric(world);
  const Group group = Group::Full(world);
  std::vector<std::vector<float>> data(world, std::vector<float>(n));
  // Ranks 1 and 3 contribute 2.0 and 6.0; 0 and 2 are stragglers whose
  // buffers hold garbage that must be ignored (nulled).
  std::fill(data[1].begin(), data[1].end(), 2.0f);
  std::fill(data[3].begin(), data[3].end(), 6.0f);
  std::fill(data[0].begin(), data[0].end(), 999.0f);
  std::fill(data[2].begin(), data[2].end(), -999.0f);
  std::vector<PartialResult> results(world);
  OnAllRanks(world, [&](std::size_t r) {
    const bool contributes = (r == 1 || r == 3);
    results[r] =
        PartialAllreduceFor({fabric, group, r}, Opts(1000), data[r], contributes);
  });
  for (std::size_t r = 0; r < world; ++r) {
    EXPECT_EQ(results[r].contributors, 2u);
    // W = 1/Σw = 1/2 → (2+6)/2 = 4.
    for (float x : data[r]) EXPECT_FLOAT_EQ(x, 4.0f);
  }
}

TEST(RingPartialAllreduce, NobodyContributesYieldsZeros) {
  const std::size_t world = 3, n = 8;
  net::Fabric fabric(world);
  const Group group = Group::Full(world);
  std::vector<std::vector<float>> data(world, std::vector<float>(n, 5.0f));
  std::vector<PartialResult> results(world);
  OnAllRanks(world, [&](std::size_t r) {
    results[r] =
        PartialAllreduceFor({fabric, group, r}, Opts(1000), data[r], false);
  });
  for (std::size_t r = 0; r < world; ++r) {
    EXPECT_EQ(results[r].contributors, 0u);
    for (float x : data[r]) EXPECT_FLOAT_EQ(x, 0.0f);
  }
}

TEST(Broadcast, RootValuePropagates) {
  const std::size_t world = 5, n = 12;
  net::Fabric fabric(world);
  const Group group = Group::Full(world);
  std::vector<std::vector<float>> data(world, std::vector<float>(n, 0.0f));
  std::fill(data[2].begin(), data[2].end(), 7.5f);
  OnAllRanks(world, [&](std::size_t r) {
    Broadcast(fabric, group, r, 2, data[r], 500);
  });
  for (std::size_t r = 0; r < world; ++r) {
    for (float x : data[r]) EXPECT_FLOAT_EQ(x, 7.5f);
  }
}

TEST(Barrier, AllRanksPass) {
  const std::size_t world = 6;
  net::Fabric fabric(world);
  const Group group = Group::Full(world);
  std::atomic<int> arrived{0};
  OnAllRanks(world, [&](std::size_t r) {
    arrived.fetch_add(1);
    Barrier(fabric, group, r, 700);
    // After the barrier everyone must have arrived.
    EXPECT_EQ(arrived.load(), static_cast<int>(world));
  });
}

// Property sweep: allreduce of all-ones equals `world` for a grid of
// world sizes × buffer sizes, including buffers smaller than the ring
// (empty chunks must still flow).
class AllreduceSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AllreduceSweep, OnesSumToWorld) {
  const auto [world_i, n_i] = GetParam();
  const auto world = static_cast<std::size_t>(world_i);
  const auto n = static_cast<std::size_t>(n_i);
  net::Fabric fabric(world);
  const Group group = Group::Full(world);
  std::vector<std::vector<float>> data(world, std::vector<float>(n, 1.0f));
  OnAllRanks(world, [&](std::size_t r) {
    Allreduce({fabric, group, r}, Opts(1000), data[r]);
  });
  for (std::size_t r = 0; r < world; ++r) {
    for (float x : data[r]) {
      ASSERT_FLOAT_EQ(x, static_cast<float>(world));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AllreduceSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 7, 8),
                       ::testing::Values(1, 2, 5, 64, 1001)));

TEST(PolicyEnums, ScheduleParseNameRoundTrip) {
  for (const auto s : {Schedule::kRing, Schedule::kTree,
                       Schedule::kStragglar}) {
    const auto parsed = ParseSchedule(ScheduleName(s));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(ParseSchedule("butterfly").has_value());
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
        CollectiveOptions ring_opts = Opts(50);
        Allreduce({ring_fabric, group, r}, ring_opts, ring_data[r]);
        CollectiveOptions tree_opts = ring_opts;
        tree_opts.schedule = Schedule::kTree;
        Allreduce({tree_fabric, group, r}, tree_opts, tree_data[r]);
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
      CollectiveOptions opts = Opts(80);
      opts.schedule = Schedule::kStragglar;
      opts.straggler = straggler;
      Allreduce({fabric, group, r}, opts, data[r]);
    });
    for (std::size_t r = 0; r < world; ++r) {
      for (const float x : data[r]) {
        ASSERT_EQ(x, 10.0f) << "straggler=" << straggler << " rank=" << r;
      }
    }
  }
}

// Every schedule on buffer sizes that do not divide by the world: all
// ranks end bitwise identical and within rounding of the exact sum.
class ScheduleAwkwardSizes : public ::testing::TestWithParam<Schedule> {};

TEST_P(ScheduleAwkwardSizes, AllRanksIdenticalAndNearExact) {
  const Schedule schedule = GetParam();
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
    OnAllRanks(world, [&](std::size_t r) {
      CollectiveOptions opts = Opts(60);
      opts.schedule = schedule;
      if (schedule == Schedule::kStragglar) opts.straggler = 2;
      Allreduce({fabric, group, r}, opts, data[r]);
    });
    for (std::size_t r = 0; r < world; ++r) {
      EXPECT_TRUE(BitwiseEqual(data[r], data[0]))
          << "ranks disagree, n=" << n;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_NEAR(data[r][i], expected[i], 1e-5f)
            << "n=" << n << " rank=" << r << " i=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ScheduleAwkwardSizes,
    ::testing::Values(Schedule::kRing, Schedule::kTree, Schedule::kStragglar),
    [](const ::testing::TestParamInfo<Schedule>& info) {
      return std::string(ScheduleName(info.param));
    });

}  // namespace
}  // namespace rna::collectives
