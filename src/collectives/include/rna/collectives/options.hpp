#pragma once

// The parameter surface for the allreduce family: a call site names a
// CollectiveContext (who is communicating) plus CollectiveOptions (how:
// schedule, tags, deadline) and passes them to AllreduceFor
// (allreduce.hpp).

#include <cstddef>
#include <vector>

#include "rna/collectives/schedule.hpp"
#include "rna/net/fabric.hpp"

namespace rna::collectives {

using net::Rank;

/// An ordered set of fabric endpoints forming one logical communicator.
/// For flat (non-hierarchical) training this is simply {0, 1, ..., N−1}.
struct Group {
  std::vector<Rank> members;

  std::size_t Size() const { return members.size(); }
  Rank At(std::size_t index) const { return members.at(index); }

  /// Index of a fabric rank inside the group; throws if absent.
  std::size_t IndexOf(Rank rank) const;

  static Group Full(std::size_t world);
};

/// Who is communicating: one caller's view of a cooperative collective.
/// The fabric and group must outlive every call made with it.
struct CollectiveContext {
  net::Fabric& fabric;
  const Group& group;
  std::size_t my_index = 0;
};

/// Sentinel for CollectiveOptions::straggler: no persistent straggler.
inline constexpr std::size_t kNoStraggler = static_cast<std::size_t>(-1);

/// How a collective runs. Every member of a group must pass *identical*
/// options for the same logical operation (same schedule, tag_base,
/// straggler): the MPI collective contract.
struct CollectiveOptions {
  Schedule schedule = Schedule::kRing;

  /// First tag of the pass's tag range (see RingTagSpan/TreeTagSpan for
  /// the width). Must not collide with other traffic in flight.
  int tag_base = 0;

  /// Bounds every receive of the pass; must be > 0. A missed deadline
  /// fails the pass (see AllreduceFor).
  common::Seconds hop_timeout = common::kLosslessDeadline;

  /// Group index of the controller-identified persistent straggler, or
  /// kNoStraggler. Only Schedule::kStragglar consumes it (the straggler is
  /// moved to the ring's tail position); all members must agree on it.
  std::size_t straggler = kNoStraggler;
};

}  // namespace rna::collectives
