// Tests for the controller's round protocol: the round plans and reports
// that carry membership to the workers (and their rejection of malformed
// frames), the ReadinessBoard against a naive reference model, and the
// disjointness of the round-indexed tag ranges the analyzer's tag model
// assumes.

#include <gtest/gtest.h>

#include "rna/common/rng.hpp"
#include "rna/train/readiness.hpp"
#include "rna/train/round_plan.hpp"
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

TEST(RoundPlan, SessionEndRoundTrips) {
  EXPECT_EQ(RoundTrip(RoundPlan::SessionEnd()).kind,
            RoundPlan::Kind::kSessionEnd);
  // The exit layout the workers have always understood.
  EXPECT_EQ(RoundPlan::SessionEnd().Encode(),
            (std::vector<std::int64_t>{-1, 1}));
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
}

TEST(RoundPlan, MembersAndVerdictRoundTrip) {
  RoundPlan plan;
  plan.round = 3;
  plan.straggler = 0;  // rank 0 must not read as "no verdict"
  plan.members = {0, 2};
  EXPECT_EQ(plan.Encode(), (std::vector<std::int64_t>{3, 1, 2, 0, 2}));
  const RoundPlan back = RoundTrip(plan);
  EXPECT_EQ(back.round, 3u);
  EXPECT_EQ(back.straggler, std::optional<net::Rank>(0));
  EXPECT_EQ(back.members, plan.members);
}

TEST(RoundPlan, MalformedFramesDecodeToNullopt) {
  using Meta = std::vector<std::int64_t>;
  EXPECT_FALSE(RoundPlan::Decode(Meta{}, kFabric).has_value());
  // Three members announced, two present; one announced, two present.
  EXPECT_FALSE(RoundPlan::Decode(Meta{0, 0, 3, 1, 2}, kFabric).has_value());
  EXPECT_FALSE(RoundPlan::Decode(Meta{0, 0, 1, 1, 2}, kFabric).has_value());
  // A negative member count, member or verdict rank.
  EXPECT_FALSE(RoundPlan::Decode(Meta{0, 0, -1}, kFabric).has_value());
  EXPECT_FALSE(RoundPlan::Decode(Meta{0, 0, 2, 1, -2}, kFabric).has_value());
  EXPECT_FALSE(RoundPlan::Decode(Meta{0, -4, 1, 1}, kFabric).has_value());
  // A rank past the fabric.
  EXPECT_FALSE(RoundPlan::Decode(Meta{0, 0, 1, 8}, kFabric).has_value());
  EXPECT_FALSE(RoundPlan::Decode(Meta{0, 9, 1, 1}, kFabric).has_value());
  // An exit with an unknown reason, or with trailing words.
  EXPECT_FALSE(RoundPlan::Decode(Meta{-1, 2}, kFabric).has_value());
  EXPECT_FALSE(RoundPlan::Decode(Meta{-1, 7}, kFabric).has_value());
  EXPECT_FALSE(RoundPlan::Decode(Meta{-1, 1, 0}, kFabric).has_value());
}

TEST(RoundReport, RoundTrips) {
  const RoundReport report{9, 2, true};
  EXPECT_EQ(report.Encode(), (std::vector<std::int64_t>{9, 2, 1}));
  const std::optional<RoundReport> back = RoundReport::Decode(report.Encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->round, 9u);
  EXPECT_EQ(back->consumed, 2u);
  EXPECT_TRUE(back->aborted);
}

TEST(RoundReport, MalformedFramesDecodeToNullopt) {
  using Meta = std::vector<std::int64_t>;
  EXPECT_FALSE(RoundReport::Decode(Meta{}).has_value());
  EXPECT_FALSE(RoundReport::Decode(Meta{1, 2}).has_value());
  EXPECT_FALSE(RoundReport::Decode(Meta{4, 0, 0, 1}).has_value());
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

TEST(ReadinessBoard, AddAndClearMaintainTheTally) {
  ReadinessBoard board(130);
  board.Add(0, 1);
  board.Add(64, 2);
  board.Add(129, 1);
  EXPECT_EQ(board.ReadyRanks(), 3u);
  board.Clear(64);
  EXPECT_EQ(board.Count(64), 0);
  EXPECT_EQ(board.ReadyRanks(), 2u);
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
// per-rank recount.
class ReadinessFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ReadinessFuzz, MatchesNaiveReferenceModel) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t world = 1 + rng.UniformInt(300);
  ReadinessBoard board(world);
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
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReadinessFuzz, ::testing::Range(1, 25));

// -------------------------------------------------------------------- tags

TEST(Tags, RoundIndexedRangesStayDisjoint) {
  // The analyzer's tag model (tools/analyze/checks/tags.py) checks these
  // statically; this is the runtime mirror at the documented scale bounds.
  constexpr std::size_t kMaxWorld = 1024;
  constexpr std::size_t kMaxRounds = 100000;
  // Group-cast tags live strictly below the ring base...
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
                      tags::kAvgRep}) {
    EXPECT_LT(t, tags::kGroupCastBase);
  }
}

}  // namespace
}  // namespace rna::train
