#pragma once

// Reduction schedules: the communication topology a collective pass moves
// chunks over. kRing is the paper's 2(N−1)-hop bandwidth-optimal ring;
// kTree is a binomial reduce-to-root + broadcast tree (2·log₂N latency,
// better for small buffers and large worlds); kStragglar re-orders the ring
// so a *persistent* straggler — identified by the controller's per-round
// verdicts — sits at the tail position where its slow hop overlaps the
// most other work ("Efficient AllReduce with Stragglers", PAPERS.md),
// instead of RNA's per-round skipping.
//
// The tag-span functions below are part of the tag-discipline model
// (tools/analyze reads this header): every schedule for a `world`-member
// group must keep all of its tags inside [tag_base, tag_base + span) so the
// round stride provably covers them.

#include <cstddef>
#include <optional>
#include <string_view>

namespace rna::collectives {

enum class Schedule {
  kRing = 0,       ///< fixed-neighbor ring (the paper's)
  kTree = 1,       ///< binomial reduce + broadcast tree
  kStragglar = 2,  ///< ring with the persistent straggler moved to the tail
};

/// Canonical lowercase name ("ring", "tree", "stragglar").
const char* ScheduleName(Schedule s);

/// Inverse of ScheduleName; std::nullopt for unknown names.
std::optional<Schedule> ParseSchedule(std::string_view name);

/// Tags a ring pass may touch: reduce steps at tag_base + [0, world−1),
/// gather steps at tag_base + world + [0, world−1). kStragglar permutes
/// positions, not tags, so it shares this span.
inline int RingTagSpan(std::size_t world) {
  return static_cast<int>(2 * world - 1);
}

/// Tags a tree pass may touch: reduce sends at tag_base + sender_pos
/// (pos in [1, world)), broadcast deliveries at tag_base + world +
/// receiver_pos.
inline int TreeTagSpan(std::size_t world) {
  return static_cast<int>(2 * world);
}

}  // namespace rna::collectives
