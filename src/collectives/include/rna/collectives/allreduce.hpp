#pragma once

// The allreduce family behind one options struct: every schedule ×
// compression combination runs through `AllreduceFor(ctx, options, data)`.
// This replaces the old grown-by-accretion positional entry points
// (RingAllreduce / RingAllreduceFor / RingPartialAllreduce): call sites
// build a CollectiveOptions once and the same options select the wire
// format and topology everywhere — flat rings, hierarchical groups,
// Horovod's baseline. Each schedule is one plain hop loop (one send, then
// one receive, per hop) in the detail namespace below.

#include <span>

#include "rna/collectives/options.hpp"
#include "rna/collectives/ring.hpp"

namespace rna::collectives {

namespace detail {

/// The schedules behind AllreduceFor, which validates the options, sizes
/// the error feedback and returns early for a one-member group; both need
/// world >= 2. `residual` is the feedback window [0, data.size()) of
/// options.feedback, or empty (no feedback, or Compression::kNone).
///
/// Schedule::kRing/kStragglar (ring.cpp): the paper's ring, 2(N−1) hops.
/// Chunks are encoded through rna/net/wire once per send and forwarded
/// verbatim through the all-gather. kStragglar moves `options.straggler` to
/// the ring's tail *position* (chunk ownership and neighbors permute with
/// it; tags do not), so its slow hops overlap the most other work instead
/// of stalling a fixed pair of neighbors.
bool RingAllreduceFor(const CollectiveContext& ctx,
                      const CollectiveOptions& options, std::span<float> data,
                      std::span<float> residual);

/// Schedule::kTree (schedule.cpp): a binomial reduce-to-root up-sweep
/// (log₂N rounds; at round `mask` every position with that bit set sends
/// its full partial sum to pos − mask) followed by a binomial broadcast
/// down-sweep. 2·⌈log₂N⌉ sequential hops instead of the ring's 2(N−1) —
/// the latency-optimal choice for small buffers or large worlds — at the
/// cost of full-buffer payloads per hop. Each rank encodes its reduce send
/// (with error feedback) and the root encodes the broadcast frame, which
/// is forwarded verbatim down the tree, so all ranks end bitwise identical.
bool TreeAllreduceFor(const CollectiveContext& ctx,
                      const CollectiveOptions& options, std::span<float> data,
                      std::span<float> residual);

}  // namespace detail

/// In-place sum-allreduce: after the call every member's `data` holds the
/// elementwise sum across the group (for lossy compression: the identical
/// decoded reconstruction of it on every member). All members must pass
/// equal-size buffers and identical options; the pass's tags live in
/// [options.tag_base, options.tag_base + TreeTagSpan(world)).
///
/// Returns false when a hop missed options.hop_timeout, the fabric shut
/// down — i.e. a group member crashed mid-collective — or a peer's frame
/// failed to decode (`collectives.rejected_frames`), leaving `data` in an
/// undefined partial state; the caller must abort the round, discard the
/// buffer, and purge the tag range. This is what keeps a mid-collective
/// crash from deadlocking every survivor in a hop receive.
bool AllreduceFor(const CollectiveContext& ctx,
                  const CollectiveOptions& options, std::span<float> data);

/// Throwing wrapper: terminates (RNA_CHECK) if the collective aborted.
/// For call sites with no abort path (tests, benches).
void Allreduce(const CollectiveContext& ctx, const CollectiveOptions& options,
               std::span<float> data);

struct PartialResult {
  /// Number of ranks that contributed a real gradient (Σw).
  std::size_t contributors = 0;
  /// False when the collective aborted (member crash / timeout / shutdown);
  /// the data buffer is zeroed and contributors is 0 in that case.
  bool ok = true;
};

/// Partial allreduce (Algorithm 2): ranks with `contributes == false` send
/// a null gradient (their buffer is zeroed on entry). On exit every
/// member's buffer holds (Σ contributed gradients) / Σw — the weighted
/// average — or all zeros when nobody contributed. The contributor count
/// rides as one bit-exact tail element appended to the payload, so it
/// survives every compression policy. options.exact_tail is overridden
/// accordingly; options.hop_timeout bounds each hop receive, and on a
/// failed pass the result has ok == false (see AllreduceFor).
PartialResult PartialAllreduceFor(const CollectiveContext& ctx,
                                 const CollectiveOptions& options,
                                 std::span<float> data, bool contributes);

}  // namespace rna::collectives
