// Property tests for the elastic-membership layer: the sharded
// ReadinessBoard against a naive reference model, the MembershipDirectory
// state machine (every rank in exactly one state, epochs monotonic), ring
// re-formation (single cycle over the active set after any join/leave
// schedule), the round plans and reports that carry membership to the
// workers, the capped grouping rule, the bounded-fan-in PS tree, and the
// disjointness of the round-indexed tag ranges the analyzer's tag model
// assumes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "rna/common/rng.hpp"
#include "rna/core/rna.hpp"
#include "rna/train/membership.hpp"
#include "rna/train/round_plan.hpp"
#include "rna/train/sharding.hpp"
#include "rna/train/tags.hpp"

namespace rna::train {
namespace {

// --------------------------------------------------------------- round plans

constexpr std::size_t kFabric = 8;  // ranks 0..7 exist

RoundPlan RoundTrip(const RoundPlan& plan) {
  const std::optional<RoundPlan> back =
      RoundPlan::Decode(plan.Encode(), kFabric);
  EXPECT_TRUE(back.has_value());
  return back.value_or(RoundPlan{});
}

TEST(RoundPlan, ExitsRoundTrip) {
  for (const auto kind : {RoundPlan::Kind::kSessionEnd,
                          RoundPlan::Kind::kLeave}) {
    EXPECT_EQ(RoundTrip(RoundPlan::Exit(kind)).kind, kind);
  }
  // The exit layouts the workers have always understood.
  EXPECT_EQ(RoundPlan::Exit(RoundPlan::Kind::kSessionEnd).Encode(),
            (std::vector<std::int64_t>{-1, 1}));
  EXPECT_EQ(RoundPlan::Exit(RoundPlan::Kind::kLeave).Encode(),
            (std::vector<std::int64_t>{-1, 2}));
}

TEST(RoundPlan, MembersOnlyRoundTrips) {
  RoundPlan plan;
  plan.round = 12;
  plan.members = {4, 0, 7};
  EXPECT_EQ(plan.Encode(), (std::vector<std::int64_t>{12, 0, 3, 4, 0, 7}));
  const RoundPlan back = RoundTrip(plan);
  EXPECT_EQ(back.kind, RoundPlan::Kind::kRound);
  EXPECT_EQ(back.round, 12u);
  EXPECT_FALSE(back.straggler.has_value());
  EXPECT_EQ(back.members, plan.members);
  EXPECT_TRUE(back.joiners.empty());
}

TEST(RoundPlan, MembersJoinersAndVerdictRoundTrip) {
  RoundPlan plan;
  plan.round = 3;
  plan.straggler = 0;  // rank 0 must not read as "no verdict"
  plan.members = {0, 2};
  plan.joiners = {5, 6};
  EXPECT_EQ(plan.Encode(),
            (std::vector<std::int64_t>{3, 1, 2, 0, 2, 5, 6}));
  const RoundPlan back = RoundTrip(plan);
  EXPECT_EQ(back.round, 3u);
  EXPECT_EQ(back.straggler, std::optional<net::Rank>(0));
  EXPECT_EQ(back.members, plan.members);
  EXPECT_EQ(back.joiners, plan.joiners);
}

TEST(RoundPlan, MalformedFramesDecodeToNullopt) {
  using Meta = std::vector<std::int64_t>;
  EXPECT_FALSE(RoundPlan::Decode(Meta{}, kFabric).has_value());
  // Three members announced, two present.
  EXPECT_FALSE(RoundPlan::Decode(Meta{0, 0, 3, 1, 2}, kFabric).has_value());
  // A negative member, joiner or verdict rank.
  EXPECT_FALSE(RoundPlan::Decode(Meta{0, 0, 2, 1, -2}, kFabric).has_value());
  EXPECT_FALSE(RoundPlan::Decode(Meta{0, 0, 1, 1, -1}, kFabric).has_value());
  EXPECT_FALSE(RoundPlan::Decode(Meta{0, -4, 1, 1}, kFabric).has_value());
  // A rank past the fabric.
  EXPECT_FALSE(RoundPlan::Decode(Meta{0, 0, 1, 8}, kFabric).has_value());
  EXPECT_FALSE(RoundPlan::Decode(Meta{0, 9, 1, 1}, kFabric).has_value());
  // An exit with an unknown reason.
  EXPECT_FALSE(RoundPlan::Decode(Meta{-1, 7}, kFabric).has_value());
}

TEST(RoundReport, MemberAndJoinerReportsRoundTrip) {
  const RoundReport member{9, 2, true, std::nullopt};
  EXPECT_EQ(member.Encode(), (std::vector<std::int64_t>{9, 2, 1}));
  const std::optional<RoundReport> m = RoundReport::Decode(member.Encode());
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->round, 9u);
  EXPECT_EQ(m->consumed, 2u);
  EXPECT_TRUE(m->aborted);
  EXPECT_FALSE(m->synced.has_value());

  const RoundReport joiner{4, 0, false, true};
  EXPECT_EQ(joiner.Encode(), (std::vector<std::int64_t>{4, 0, 0, 1}));
  const std::optional<RoundReport> j = RoundReport::Decode(joiner.Encode());
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->round, 4u);
  EXPECT_EQ(j->consumed, 0u);
  EXPECT_FALSE(j->aborted);
  EXPECT_EQ(j->synced, std::optional<bool>(true));
}

TEST(RoundReport, MalformedFramesDecodeToNullopt) {
  using Meta = std::vector<std::int64_t>;
  EXPECT_FALSE(RoundReport::Decode(Meta{}).has_value());
  EXPECT_FALSE(RoundReport::Decode(Meta{1, 2}).has_value());
  EXPECT_FALSE(RoundReport::Decode(Meta{-1, 0, 0}).has_value());
  EXPECT_FALSE(RoundReport::Decode(Meta{1, -3, 0}).has_value());
}

// ---------------------------------------------------------------- readiness

TEST(ReadinessBoard, StartsEmpty) {
  ReadinessBoard board(10);
  EXPECT_EQ(board.Size(), 10u);
  EXPECT_EQ(board.ReadyRanks(), 0u);
  for (std::size_t r = 0; r < 10; ++r) EXPECT_EQ(board.Count(r), 0);
}

TEST(ReadinessBoard, AddAndClearMaintainAggregates) {
  ReadinessBoard board(130);  // spans three default shards
  board.Add(0, 1);
  board.Add(64, 2);
  board.Add(129, 1);
  EXPECT_EQ(board.ReadyRanks(), 3u);
  EXPECT_EQ(board.ReadyRanksInShard(0), 1u);
  EXPECT_EQ(board.ReadyRanksInShard(1), 1u);
  EXPECT_EQ(board.ReadyRanksInShard(2), 1u);
  board.Clear(64);
  EXPECT_EQ(board.Count(64), 0);
  EXPECT_EQ(board.ReadyRanks(), 2u);
  EXPECT_EQ(board.ReadyRanksInShard(1), 0u);
}

TEST(ReadinessBoard, NegativeCountsAreNotReady) {
  // A round report can decrement before the matching kReady lands.
  ReadinessBoard board(4);
  board.Add(2, -3);
  EXPECT_EQ(board.Count(2), -3);
  EXPECT_EQ(board.ReadyRanks(), 0u);
  board.Add(2, 3);  // the late notifications arrive: still not positive
  EXPECT_EQ(board.ReadyRanks(), 0u);
  board.Add(2, 1);
  EXPECT_EQ(board.ReadyRanks(), 1u);
}

// Property: after any random op sequence the board matches a naive
// per-rank recount, and the shard tallies sum to the global one.
class ReadinessFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ReadinessFuzz, MatchesNaiveReferenceModel) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t world = 1 + rng.UniformInt(300);
  const std::size_t shard_size = 1 + rng.UniformInt(70);
  ReadinessBoard board(world, shard_size);
  std::vector<std::int64_t> reference(world, 0);
  for (int op = 0; op < 2000; ++op) {
    const std::size_t rank = rng.UniformInt(world);
    if (rng.UniformInt(8) == 0) {
      board.Clear(rank);
      reference[rank] = 0;
    } else {
      const auto delta = static_cast<std::int64_t>(rng.UniformInt(5)) - 2;
      board.Add(rank, delta);
      reference[rank] += delta;
    }
  }
  std::size_t expect_ready = 0;
  for (std::size_t r = 0; r < world; ++r) {
    EXPECT_EQ(board.Count(r), reference[r]);
    if (reference[r] > 0) ++expect_ready;
  }
  EXPECT_EQ(board.ReadyRanks(), expect_ready);
  std::size_t shard_sum = 0;
  for (std::size_t s = 0; s < board.ShardCount(); ++s) {
    shard_sum += board.ReadyRanksInShard(s);
  }
  EXPECT_EQ(shard_sum, expect_ready);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReadinessFuzz, ::testing::Range(1, 25));

// ---------------------------------------------------------- directory

std::vector<net::Rank> Ranks(std::size_t n) {
  std::vector<net::Rank> ranks(n);
  std::iota(ranks.begin(), ranks.end(), net::Rank{0});
  return ranks;
}

TEST(MembershipDirectory, FoundingMembersStartActive) {
  MembershipDirectory directory(Ranks(4), {});
  EXPECT_EQ(directory.ActiveCount(), 4u);
  EXPECT_EQ(directory.ActiveMembers(), Ranks(4));
  EXPECT_TRUE(directory.SyncingMembers().empty());
  EXPECT_EQ(directory.Epoch(), 0u);
}

TEST(MembershipDirectory, JoinGoesThroughSyncing) {
  std::vector<ElasticSchedule> schedule = {{.rank = 2, .join_at_round = 3}};
  MembershipDirectory directory(Ranks(4), schedule);
  EXPECT_EQ(directory.StateOf(2), MemberState::kPending);
  EXPECT_EQ(directory.ActiveCount(), 3u);

  auto delta = directory.BeginRound(2);
  EXPECT_TRUE(delta.joining.empty());
  delta = directory.BeginRound(3);
  ASSERT_EQ(delta.joining, (std::vector<net::Rank>{2}));
  EXPECT_EQ(directory.StateOf(2), MemberState::kSyncing);
  EXPECT_EQ(directory.SyncingMembers(), (std::vector<net::Rank>{2}));
  EXPECT_EQ(directory.ActiveCount(), 3u);  // not yet a ring member

  directory.OnSynced(2);
  EXPECT_EQ(directory.StateOf(2), MemberState::kActive);
  EXPECT_EQ(directory.ActiveCount(), 4u);
  EXPECT_EQ(directory.JoinedTotal(), 1u);
}

TEST(MembershipDirectory, LeaveAtScheduledRound) {
  std::vector<ElasticSchedule> schedule = {
      {.rank = 1, .join_at_round = 0, .leave_at_round = 5}};
  MembershipDirectory directory(Ranks(3), schedule);
  EXPECT_EQ(directory.ActiveCount(), 3u);
  auto delta = directory.BeginRound(5);
  ASSERT_EQ(delta.leaving, (std::vector<net::Rank>{1}));
  EXPECT_EQ(directory.StateOf(1), MemberState::kLeft);
  EXPECT_EQ(directory.ActiveMembers(), (std::vector<net::Rank>{0, 2}));
  EXPECT_EQ(directory.LeftTotal(), 1u);
  // Idempotent: the transition fires once.
  delta = directory.BeginRound(6);
  EXPECT_TRUE(delta.leaving.empty());
}

TEST(MembershipDirectory, DeathIsTerminal) {
  std::vector<ElasticSchedule> schedule = {{.rank = 0, .join_at_round = 2}};
  MembershipDirectory directory(Ranks(2), schedule);
  directory.BeginRound(2);
  directory.OnDead(0);  // dies while syncing
  EXPECT_EQ(directory.StateOf(0), MemberState::kDead);
  directory.OnSynced(0);  // a late sync ack cannot resurrect it
  EXPECT_EQ(directory.StateOf(0), MemberState::kDead);
  EXPECT_EQ(directory.JoinedTotal(), 0u);
  directory.OnDead(1);
  EXPECT_EQ(directory.ActiveCount(), 0u);
}

TEST(MembershipDirectory, IgnoresScheduleEntriesForOtherRanks) {
  // A hierarchical group controller shares the global schedule; entries
  // for ranks outside its group must not affect it.
  std::vector<ElasticSchedule> schedule = {{.rank = 9, .join_at_round = 1}};
  MembershipDirectory directory(Ranks(3), schedule);
  EXPECT_FALSE(directory.Manages(9));
  auto delta = directory.BeginRound(1);
  EXPECT_TRUE(delta.joining.empty());
  EXPECT_EQ(directory.ActiveCount(), 3u);
}

// Property: under a random join/leave/death schedule, every managed rank
// is always in exactly one state, the active set is consistent with the
// counters, epochs grow monotonically, and the re-formed ring (the active
// member list) is a single cycle covering every active rank exactly once.
class DirectoryFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DirectoryFuzz, InvariantsHoldUnderRandomSchedules) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t world = 2 + rng.UniformInt(40);
  const std::size_t rounds = 30;
  std::vector<ElasticSchedule> schedule;
  for (std::size_t r = 0; r < world; ++r) {
    if (rng.UniformInt(3) == 0) {
      ElasticSchedule e;
      e.rank = r;
      e.join_at_round = 1 + rng.UniformInt(rounds - 2);
      if (rng.UniformInt(2) == 0) {
        e.leave_at_round = e.join_at_round + 1 + rng.UniformInt(rounds);
      }
      schedule.push_back(e);
    } else if (rng.UniformInt(4) == 0) {
      ElasticSchedule e;
      e.rank = r;
      e.leave_at_round = 1 + rng.UniformInt(rounds - 1);
      schedule.push_back(e);
    }
  }
  MembershipDirectory directory(Ranks(world), schedule);
  std::uint64_t last_epoch = directory.Epoch();
  for (std::size_t round = 0; round < rounds; ++round) {
    const auto delta = directory.BeginRound(round);
    // Joiners sync with probability 2/3; sometimes a random rank dies.
    for (const net::Rank j : delta.joining) {
      EXPECT_EQ(directory.StateOf(j), MemberState::kSyncing);
    }
    for (const net::Rank j : directory.SyncingMembers()) {
      if (rng.UniformInt(3) != 0) directory.OnSynced(j);
    }
    if (rng.UniformInt(10) == 0) {
      directory.OnDead(static_cast<net::Rank>(rng.UniformInt(world)));
    }

    // Exactly one state per rank; tallies consistent.
    std::size_t active = 0;
    for (std::size_t r = 0; r < world; ++r) {
      const MemberState s = directory.StateOf(r);
      active += s == MemberState::kActive ? 1 : 0;
      EXPECT_EQ(directory.IsActive(r), s == MemberState::kActive);
      EXPECT_EQ(directory.IsSyncing(r), s == MemberState::kSyncing);
    }
    EXPECT_EQ(directory.ActiveCount(), active);

    // The re-formed ring: a single cycle over the active set, each rank
    // exactly once, successor relation consistent with the member order.
    const std::vector<net::Rank> ring = directory.ActiveMembers();
    EXPECT_EQ(ring.size(), active);
    const std::set<net::Rank> unique(ring.begin(), ring.end());
    EXPECT_EQ(unique.size(), ring.size());
    if (!ring.empty()) {
      std::set<net::Rank> visited;
      std::size_t at = 0;
      do {
        visited.insert(ring[at]);
        at = (at + 1) % ring.size();
      } while (at != 0);
      EXPECT_EQ(visited, unique);  // one cycle covers everyone
    }
    for (const net::Rank r : ring) {
      EXPECT_TRUE(directory.IsActive(r));
    }

    EXPECT_GE(directory.Epoch(), last_epoch);
    last_epoch = directory.Epoch();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectoryFuzz, ::testing::Range(1, 20));

// ----------------------------------------------------------- capped groups

TEST(CappedGrouping, ZeroCapMatchesUncapped) {
  const std::vector<double> times = {0.05, 0.05, 0.30, 0.30, 5.0};
  EXPECT_EQ(core::ComputeSpeedGroupsCapped(times, 0),
            core::ComputeSpeedGroups(times));
}

TEST(CappedGrouping, OversizedGroupIsSplitNearEvenly) {
  const std::vector<double> times(10, 0.1);  // one homogeneous group of 10
  const auto group_of = core::ComputeSpeedGroupsCapped(times, 4);
  std::size_t num_groups = 0;
  for (std::size_t g : group_of) num_groups = std::max(num_groups, g + 1);
  EXPECT_EQ(num_groups, 3u);  // 10 over cap 4 → chunks of 4/3/3
  std::vector<std::size_t> sizes(num_groups, 0);
  for (std::size_t g : group_of) ++sizes[g];
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes, (std::vector<std::size_t>{3, 3, 4}));
}

class CappedGroupingFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CappedGroupingFuzz, EveryWorkerInExactlyOneBoundedGroup) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 2 + rng.UniformInt(200);
  const std::size_t cap = 1 + rng.UniformInt(16);
  std::vector<double> times(n);
  for (auto& t : times) t = 1e-3 * std::pow(10.0, rng.Uniform(0.0, 2.0));
  const auto group_of = core::ComputeSpeedGroupsCapped(times, cap);
  ASSERT_EQ(group_of.size(), n);  // every worker has exactly one group id
  std::size_t num_groups = 0;
  for (std::size_t g : group_of) num_groups = std::max(num_groups, g + 1);
  std::vector<std::size_t> sizes(num_groups, 0);
  for (std::size_t g : group_of) ++sizes[g];
  for (std::size_t g = 0; g < num_groups; ++g) {
    EXPECT_GE(sizes[g], 1u) << "ids must be contiguous";
    EXPECT_LE(sizes[g], cap) << "group " << g << " exceeds the cap";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CappedGroupingFuzz, ::testing::Range(1, 20));

// ----------------------------------------------------------------- PS tree

TEST(PsTree, SmallWorldsDegenerateToSingleNode) {
  // fan_in < 2 (disabled) or num_groups <= fan_in: one root serves all.
  for (const std::size_t fan_in : {0u, 1u, 2u, 8u}) {
    const PsTree tree = BuildPsTree(2, fan_in);
    EXPECT_EQ(tree.nodes.size(), 1u);
    EXPECT_EQ(tree.leaf_of, (std::vector<std::size_t>{0, 0}));
  }
  EXPECT_EQ(BuildPsTree(100, 0).nodes.size(), 1u);
}

TEST(PsTree, ThreeLevelRecursionBeyondFanInSquared) {
  // 32 groups at fan-in 3: 11 leaves → 4 mid → 2 → 1 root = depth >= 3.
  const PsTree tree = BuildPsTree(32, 3);
  std::size_t max_depth = 0;
  for (const auto& node : tree.nodes) {
    max_depth = std::max(max_depth, node.depth);
  }
  EXPECT_GE(max_depth, 3u);
}

class PsTreeFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PsTreeFuzz, BoundedFanInSingleRootParentsFirst) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t groups = 1 + rng.UniformInt(300);
  const std::size_t fan_in = 2 + rng.UniformInt(7);
  const PsTree tree = BuildPsTree(groups, fan_in);
  ASSERT_FALSE(tree.nodes.empty());
  ASSERT_EQ(tree.leaf_of.size(), groups);

  std::size_t roots = 0;
  std::vector<std::size_t> leaf_load(tree.nodes.size(), 0);
  for (std::size_t id = 0; id < tree.nodes.size(); ++id) {
    const PsTreeNode& node = tree.nodes[id];
    if (node.parent == id) {
      ++roots;
      EXPECT_EQ(node.depth, 0u);
    } else {
      EXPECT_LT(node.parent, id) << "parents must precede children";
      EXPECT_EQ(tree.nodes[node.parent].depth + 1, node.depth);
    }
    // Bounded fan-in: direct children + directly-served groups.
    EXPECT_LE(node.child_nodes.size() + node.leaf_groups.size(), fan_in);
    for (const std::size_t child : node.child_nodes) {
      EXPECT_EQ(tree.nodes[child].parent, id);
    }
  }
  EXPECT_EQ(roots, 1u);

  // Every group served by exactly one leaf, consistent with leaf_groups.
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t leaf = tree.leaf_of[g];
    ASSERT_LT(leaf, tree.nodes.size());
    const auto& served = tree.nodes[leaf].leaf_groups;
    EXPECT_NE(std::find(served.begin(), served.end(), g), served.end());
  }
  std::size_t served_total = 0;
  for (const auto& node : tree.nodes) {
    served_total += node.leaf_groups.size();
  }
  EXPECT_EQ(served_total, groups);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PsTreeFuzz, ::testing::Range(1, 25));

// -------------------------------------------------------------------- tags

TEST(Tags, RoundIndexedRangesStayDisjoint) {
  // The analyzer's tag model (tools/analyze/checks/tags.py) checks these
  // statically; this is the runtime mirror at the documented scale bounds.
  constexpr std::size_t kMaxWorld = 1024;
  constexpr std::size_t kMaxRounds = 100000;
  // Join-state tags live strictly below the group-cast range...
  EXPECT_LT(tags::JoinStateTag(kMaxRounds - 1), tags::kGroupCastBase);
  // ...group-cast below the ring base...
  EXPECT_LT(tags::GroupCastTag(kMaxRounds - 1), tags::kRingBase);
  // ...and consecutive rounds' ring ranges cannot overlap even at the
  // largest supported ring (2 * world - 2 in-flight chunk tags per round).
  EXPECT_LE(static_cast<std::size_t>(2 * kMaxWorld - 2),
            static_cast<std::size_t>(tags::kRingStride));
  EXPECT_LT(tags::RingTag(5) + 2 * static_cast<int>(kMaxWorld) - 2,
            tags::RingTag(6));
  // The fixed control tags sit below every round-indexed range.
  for (const int t : {tags::kReady, tags::kGo, tags::kRoundEnd, tags::kStep,
                      tags::kGoodbye, tags::kBarrier, tags::kAvgReq,
                      tags::kAvgRep, tags::kGroupRing}) {
    EXPECT_LT(t, tags::kJoinStateBase);
  }
}

}  // namespace
}  // namespace rna::train
