#pragma once

// The allreduce family behind one options struct: every schedule runs
// through `AllreduceFor(ctx, options, data)`, so flat rings, hierarchical
// groups and Horovod's baseline build a CollectiveOptions once and call the
// same entry point. Each schedule is one plain hop loop (one send, then one
// receive, per hop) in the detail namespace below. Every hop sends the raw
// fp32 values of its chunk.

#include <span>

#include "rna/collectives/options.hpp"
#include "rna/collectives/ring.hpp"

namespace rna::collectives {

namespace detail {

/// The schedules behind AllreduceFor, which validates the options and
/// returns early for a one-member group; both need world >= 2.
///
/// Schedule::kRing/kStragglar (ring.cpp): the paper's ring, 2(N−1) hops.
/// Every reduce-scatter hop and the first all-gather hop send a pooled copy
/// of one chunk; the later all-gather hops forward the received frame as it
/// is. kStragglar moves
/// `options.straggler` to the ring's tail *position* (chunk ownership and
/// neighbors permute with it; tags do not), so its slow hops overlap the
/// most other work instead of stalling a fixed pair of neighbors.
bool RingAllreduceFor(const CollectiveContext& ctx,
                      const CollectiveOptions& options, std::span<float> data);

/// Schedule::kTree (schedule.cpp): a binomial reduce-to-root up-sweep
/// (log₂N rounds; at round `mask` every position with that bit set sends
/// its full partial sum to pos − mask) followed by a binomial broadcast
/// down-sweep. 2·⌈log₂N⌉ sequential hops instead of the ring's 2(N−1) —
/// the latency-optimal choice for small buffers or large worlds — at the
/// cost of full-buffer payloads per hop. The root's finished sum is
/// forwarded as it is down the tree, so all ranks end bitwise identical.
bool TreeAllreduceFor(const CollectiveContext& ctx,
                      const CollectiveOptions& options, std::span<float> data);

}  // namespace detail

/// In-place sum-allreduce: after the call every member's `data` holds the
/// same elementwise sum across the group. All members must pass
/// equal-size buffers and identical options; the pass's tags live in
/// [options.tag_base, options.tag_base + TreeTagSpan(world)).
///
/// Returns false when a hop missed options.hop_timeout, the fabric shut
/// down — i.e. a group member crashed mid-collective — or a peer's frame
/// had the wrong size (`collectives.rejected_frames`), leaving `data` in an
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
/// rides as one element appended to the payload (a sum of small integers,
/// exact in fp32). options.hop_timeout bounds each hop receive, and on a
/// failed pass the result has ok == false (see AllreduceFor).
PartialResult PartialAllreduceFor(const CollectiveContext& ctx,
                                 const CollectiveOptions& options,
                                 std::span<float> data, bool contributes);

}  // namespace rna::collectives
