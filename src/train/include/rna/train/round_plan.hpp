#pragma once

// The RNA engine's round protocol as typed values. A controller sends a
// RoundPlan in every kGo message and each worker answers with a
// RoundReport in a kRoundEnd message. Both travel in net::Message::meta,
// and each type owns the one Encode and the one Decode of its layout:
//
//   RoundPlan    [round, verdict, M, members[0..M)]
//                verdict = straggler rank + 1, or 0 for no verdict
//                [-1, 1] ends the session
//   RoundReport  [round, consumed, aborted]

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "rna/net/message.hpp"

namespace rna::train {

struct RoundPlan {
  enum class Kind {
    kRound,       ///< run `round` over `members`
    kSessionEnd,  ///< the session is over for every rank
  };

  Kind kind = Kind::kRound;
  std::size_t round = 0;
  /// The controller's persistent-straggler verdict, which
  /// Schedule::kStragglar re-orders the ring around.
  std::optional<net::Rank> straggler;
  std::vector<net::Rank> members;  ///< the round's ring, in ring order

  static RoundPlan SessionEnd() {
    RoundPlan plan;
    plan.kind = Kind::kSessionEnd;
    return plan;
  }

  std::vector<std::int64_t> Encode() const;

  /// std::nullopt for a malformed frame: empty, a member count other than
  /// its length − 3, or a rank that is negative or not below `fabric_size`.
  static std::optional<RoundPlan> Decode(std::span<const std::int64_t> meta,
                                         std::size_t fabric_size);
};

struct RoundReport {
  std::size_t round = 0;
  std::size_t consumed = 0;  ///< gradients drained into the collective
  bool aborted = false;      ///< the collective timed out

  std::vector<std::int64_t> Encode() const;

  /// std::nullopt for a frame that is not three entries long or has a
  /// negative round or count.
  static std::optional<RoundReport> Decode(std::span<const std::int64_t> meta);
};

}  // namespace rna::train
