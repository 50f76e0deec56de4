#include "rna/train/round_plan.hpp"

namespace rna::train {

namespace {

constexpr std::int64_t kExit = -1;
constexpr std::int64_t kExitSession = 1;
constexpr std::int64_t kExitLeave = 2;

}  // namespace

std::vector<std::int64_t> RoundPlan::Encode() const {
  switch (kind) {
    case Kind::kSessionEnd:
      return {kExit, kExitSession};
    case Kind::kLeave:
      return {kExit, kExitLeave};
    case Kind::kRound:
      break;
  }
  std::vector<std::int64_t> meta;
  meta.reserve(3 + members.size() + joiners.size());
  meta.push_back(static_cast<std::int64_t>(round));
  meta.push_back(straggler ? static_cast<std::int64_t>(*straggler) + 1 : 0);
  meta.push_back(static_cast<std::int64_t>(members.size()));
  for (const auto* ranks : {&members, &joiners}) {
    for (const net::Rank r : *ranks) {
      meta.push_back(static_cast<std::int64_t>(r));
    }
  }
  return meta;
}

std::optional<RoundPlan> RoundPlan::Decode(std::span<const std::int64_t> meta,
                                           std::size_t fabric_size) {
  if (meta.size() < 2) return std::nullopt;
  if (meta[0] == kExit) {
    if (meta[1] == kExitSession) return Exit(Kind::kSessionEnd);
    if (meta[1] == kExitLeave) return Exit(Kind::kLeave);
    return std::nullopt;
  }
  if (meta.size() < 3 || meta[0] < 0 || meta[1] < 0 || meta[2] < 0) {
    return std::nullopt;
  }
  const auto member_count = static_cast<std::size_t>(meta[2]);
  if (member_count > meta.size() - 3) return std::nullopt;
  const auto valid_rank = [fabric_size](std::int64_t r) {
    return r >= 0 && static_cast<std::size_t>(r) < fabric_size;
  };
  RoundPlan plan;
  plan.round = static_cast<std::size_t>(meta[0]);
  if (meta[1] > 0) {
    if (!valid_rank(meta[1] - 1)) return std::nullopt;
    plan.straggler = static_cast<net::Rank>(meta[1] - 1);
  }
  plan.members.reserve(member_count);
  for (std::size_t i = 3; i < meta.size(); ++i) {
    if (!valid_rank(meta[i])) return std::nullopt;
    auto& into = i - 3 < member_count ? plan.members : plan.joiners;
    into.push_back(static_cast<net::Rank>(meta[i]));
  }
  return plan;
}

std::vector<std::int64_t> RoundReport::Encode() const {
  std::vector<std::int64_t> meta = {static_cast<std::int64_t>(round),
                                    static_cast<std::int64_t>(consumed),
                                    aborted ? 1 : 0};
  if (synced.has_value()) meta.push_back(*synced ? 1 : 0);
  return meta;
}

std::optional<RoundReport> RoundReport::Decode(
    std::span<const std::int64_t> meta) {
  if (meta.size() < 3 || meta[0] < 0 || meta[1] < 0) return std::nullopt;
  RoundReport report;
  report.round = static_cast<std::size_t>(meta[0]);
  report.consumed = static_cast<std::size_t>(meta[1]);
  report.aborted = meta[2] != 0;
  if (meta.size() > 3) report.synced = meta[3] != 0;
  return report;
}

}  // namespace rna::train
