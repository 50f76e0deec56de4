#pragma once

// From-scratch ring collectives over the in-process fabric, built the way
// the paper describes Ring AllReduce (§2.2): N−1 reduce-scatter steps, each
// moving 1/N of the buffer to the left-to-right neighbor, then N−1
// all-gather steps. These primitives are *cooperative*: every member of the
// group must call the same operation with the same options, exactly like an
// MPI collective. The allreduce entry points live in allreduce.hpp (the ring
// pass itself is detail::RingAllreduceFor in ring.cpp); this header has the
// shared hop receive plus the broadcast/barrier primitives.
//
// Data plane (see DESIGN.md "Data plane & memory"): hop payloads are
// acquired from the fabric's BufferPool and recycled by the receiver after
// folding, so a steady-state ring moves buffers instead of allocating them;
// the reduce-scatter accumulate and the W = 1/Σw re-weight run through the
// vectorized kernels in rna/common/simd.hpp (bitwise identical to their
// scalar references).

#include <optional>
#include <span>
#include <vector>

#include "rna/collectives/options.hpp"
#include "rna/net/fabric.hpp"

namespace rna::collectives {

namespace detail {
/// How RecvFrame applies a hop frame to its destination.
enum class Fold {
  kCopy,  ///< dst = frame (all-gather, broadcast)
  kAdd,   ///< dst += frame (reduce), through simd::AddInto
};

/// A pool-acquired copy of `values`: the payload of one hop.
std::vector<float> PooledCopy(net::Fabric& fabric,
                              std::span<const float> values);

/// Receives one hop frame at `tag` and applies it to `dst`. Returns the
/// frame for the caller to forward or recycle. std::nullopt when the hop
/// missed its deadline `timeout`, the fabric shut down, or the frame was
/// not dst.size() floats long — a wrong-size frame is recycled and counted
/// in `collectives.rejected_frames` with `dst` untouched — and either way
/// the pass must abort.
std::optional<std::vector<float>> RecvFrame(net::Fabric& fabric, Rank self,
                                            int tag, common::Seconds timeout,
                                            std::span<float> dst, Fold fold);
}  // namespace detail

/// Star broadcast from `root_index` to all other members; terminates
/// (RNA_CHECK) unless it completes within common::kLosslessDeadline. For
/// call sites with no abort path (tests, benches).
void Broadcast(net::Fabric& fabric, const Group& group, std::size_t my_index,
               std::size_t root_index, std::span<float> data, int tag_base);

/// Timed broadcast receive (the root never blocks): false when the root's
/// message did not arrive within `timeout`, the fabric shut down, or the
/// frame was not data.size() floats long (recycled and counted like any
/// rejected frame, `data` untouched).
bool BroadcastFor(net::Fabric& fabric, const Group& group,
                  std::size_t my_index, std::size_t root_index,
                  std::span<float> data, int tag_base,
                  common::Seconds timeout);

/// Full barrier over the group (gather-to-first + release); terminates
/// (RNA_CHECK) unless every member arrives within common::kLosslessDeadline.
void Barrier(net::Fabric& fabric, const Group& group, std::size_t my_index,
             int tag_base);

/// Timed barrier: `timeout` bounds the *whole* barrier (the leader's
/// gather and each follower's release wait share one deadline). Returns
/// false when the deadline passed or the fabric shut down — some members
/// may then be left waiting on tag_base/tag_base+1 traffic that never
/// comes, until their own deadline releases them.
bool BarrierFor(net::Fabric& fabric, const Group& group, std::size_t my_index,
                int tag_base, common::Seconds timeout);

}  // namespace rna::collectives
