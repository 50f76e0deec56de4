#include "rna/train/round_plan.hpp"

namespace rna::train {

namespace {

constexpr std::int64_t kExit = -1;
constexpr std::int64_t kExitSession = 1;

}  // namespace

std::vector<std::int64_t> RoundPlan::Encode() const {
  if (kind == Kind::kSessionEnd) return {kExit, kExitSession};
  std::vector<std::int64_t> meta;
  meta.reserve(3 + members.size());
  meta.push_back(static_cast<std::int64_t>(round));
  meta.push_back(straggler ? static_cast<std::int64_t>(*straggler) + 1 : 0);
  meta.push_back(static_cast<std::int64_t>(members.size()));
  for (const net::Rank r : members) {
    meta.push_back(static_cast<std::int64_t>(r));
  }
  return meta;
}

std::optional<RoundPlan> RoundPlan::Decode(std::span<const std::int64_t> meta,
                                           std::size_t fabric_size) {
  if (meta.size() < 2) return std::nullopt;
  if (meta[0] == kExit) {
    if (meta.size() == 2 && meta[1] == kExitSession) return SessionEnd();
    return std::nullopt;
  }
  if (meta.size() < 3 || meta[0] < 0 || meta[1] < 0 ||
      meta[2] != static_cast<std::int64_t>(meta.size() - 3)) {
    return std::nullopt;
  }
  const auto valid_rank = [fabric_size](std::int64_t r) {
    return r >= 0 && static_cast<std::size_t>(r) < fabric_size;
  };
  RoundPlan plan;
  plan.round = static_cast<std::size_t>(meta[0]);
  if (meta[1] > 0) {
    if (!valid_rank(meta[1] - 1)) return std::nullopt;
    plan.straggler = static_cast<net::Rank>(meta[1] - 1);
  }
  plan.members.reserve(meta.size() - 3);
  for (std::size_t i = 3; i < meta.size(); ++i) {
    if (!valid_rank(meta[i])) return std::nullopt;
    plan.members.push_back(static_cast<net::Rank>(meta[i]));
  }
  return plan;
}

std::vector<std::int64_t> RoundReport::Encode() const {
  return {static_cast<std::int64_t>(round),
          static_cast<std::int64_t>(consumed), aborted ? 1 : 0};
}

std::optional<RoundReport> RoundReport::Decode(
    std::span<const std::int64_t> meta) {
  if (meta.size() != 3 || meta[0] < 0 || meta[1] < 0) return std::nullopt;
  RoundReport report;
  report.round = static_cast<std::size_t>(meta[0]);
  report.consumed = static_cast<std::size_t>(meta[1]);
  report.aborted = meta[2] != 0;
  return report;
}

}  // namespace rna::train
