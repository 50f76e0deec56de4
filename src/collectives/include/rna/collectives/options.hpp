#pragma once

// The single parameter surface for the allreduce family. Historically every
// collective entry point grew its own positional signature (fabric, group,
// my_index, data, tag_base, hop_timeout, ...); adding compression and
// schedules would have doubled them again. Instead a call site now names a
// CollectiveContext (who is communicating) plus CollectiveOptions (how:
// schedule, compression, tags, deadline) and passes them to one
// AllreduceFor implementation (allreduce.hpp).

#include <cstddef>
#include <vector>

#include "rna/collectives/compression.hpp"
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
/// options for the same logical operation (same schedule, compression,
/// fraction, tag_base, straggler) — exactly the MPI collective contract the
/// old positional arguments had, now in one named struct.
struct CollectiveOptions {
  Schedule schedule = Schedule::kRing;
  Compression compression = Compression::kNone;

  /// Fraction of elements kept per chunk under Compression::kTopK.
  double topk_fraction = 0.05;

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

  /// Number of trailing elements carried bit-exact through lossy
  /// compression (contributor counts, stop votes).
  std::size_t exact_tail = 0;

  /// Per-worker error-feedback residual for the lossy policies; may be
  /// null (residuals are then dropped — fp16/int8 tolerate it, kTopK
  /// converges much slower). The call uses residual elements
  /// [0, data.size()) and grows the buffer if it is too small (growth
  /// zero-fills — pre-size once before the hot loop to keep residuals alive
  /// and the steady state allocation-free).
  ErrorFeedback* feedback = nullptr;
};

}  // namespace rna::collectives
