#pragma once

// Fabric tag allocation shared by all protocol implementations. Ring
// collective tags are unique per round (round-indexed disjoint ranges), so
// a stale chunk of an *aborted* collective — left in a mailbox when a
// member crashed mid-ring and the survivors timed out — can never alias a
// later round's traffic. Workers additionally purge the tag range of all
// earlier rounds before entering a new collective (Fabric::Purge).

#include <cstddef>

namespace rna::train::tags {

inline constexpr int kReady = 100;     ///< worker → controller: gradient buffered
inline constexpr int kGo = 103;        ///< controller → worker: run round / exit
inline constexpr int kRoundEnd = 105;  ///< worker → controller: round report
inline constexpr int kStep = 107;      ///< controller → worker: lockstep compute token
inline constexpr int kGoodbye = 108;   ///< worker → controller: fail-stop farewell
inline constexpr int kBarrier = 300;   ///< Horovod negotiation barrier (+1 used)
inline constexpr int kAvgReq = 400;    ///< AD-PSGD pairwise average request
inline constexpr int kAvgRep = 401;    ///< AD-PSGD pairwise average reply

// Round-indexed hierarchical group broadcast: one tag per round, in a
// dedicated range below the ring ranges.
inline constexpr int kGroupCastBase = 1 << 21;

inline constexpr int GroupCastTag(std::size_t round) {
  return kGroupCastBase + static_cast<int>(round);
}

inline constexpr int kRingBase = 1 << 22;
inline constexpr int kRingStride = 4096;  ///< supports rings up to ~2000 ranks

/// Tag base for the collective of `round` (unique per round).
inline constexpr int RingTag(std::size_t round) {
  return kRingBase + static_cast<int>(round) * kRingStride;
}

/// Tag base for Horovod's negotiation barrier of `round`.
inline constexpr int BarrierTag(std::size_t round) {
  return kBarrier + static_cast<int>(round % 2) * 8;
}

}  // namespace rna::train::tags
