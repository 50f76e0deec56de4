#include "rna/collectives/ring.hpp"

#include <algorithm>

#include "rna/collectives/allreduce.hpp"
#include "rna/common/check.hpp"
#include "rna/common/simd.hpp"
#include "rna/obs/metrics.hpp"

namespace rna::collectives {

namespace detail {

std::vector<float> PooledCopy(net::Fabric& fabric,
                              std::span<const float> values) {
  std::vector<float> payload = fabric.Pool().Acquire(values.size());
  std::copy(values.begin(), values.end(), payload.begin());
  return payload;
}

std::optional<std::vector<float>> RecvFrame(net::Fabric& fabric, Rank self,
                                            int tag, common::Seconds timeout,
                                            std::span<float> dst, Fold fold) {
  auto in = fabric.RecvFor(self, tag, timeout);
  if (!in.has_value()) return std::nullopt;
  // A peer's frame is checked before it touches the destination.
  if (in->data.size() != dst.size()) {
    obs::CountMetric("collectives.rejected_frames");
    fabric.Pool().Recycle(std::move(in->data));
    return std::nullopt;
  }
  if (fold == Fold::kAdd) {
    common::simd::AddInto(dst, in->data);
  } else {
    std::copy(in->data.begin(), in->data.end(), dst.begin());
  }
  return std::move(in->data);
}

bool RingAllreduceFor(const CollectiveContext& ctx,
                      const CollectiveOptions& options, std::span<float> data) {
  net::Fabric& fabric = ctx.fabric;
  const std::size_t world = ctx.group.Size();
  // The StragglAR-style permutation moves the straggler to the tail
  // *position*; everyone else keeps their relative order. Positions — not
  // member indices — own chunks and define neighbors, so the permutation
  // re-routes the ring without touching tags or membership.
  const std::size_t straggler = options.schedule == Schedule::kStragglar
                                    ? options.straggler
                                    : kNoStraggler;
  auto index_at = [&](std::size_t pos) {
    if (straggler >= world) return pos;
    if (pos == world - 1) return straggler;
    return pos < straggler ? pos : pos + 1;
  };
  std::size_t pos = ctx.my_index;
  if (straggler < world && pos >= straggler) {
    pos = pos == straggler ? world - 1 : pos - 1;
  }
  const Rank self = ctx.group.At(ctx.my_index);
  const Rank right = ctx.group.At(index_at((pos + 1) % world));

  // Chunk boundaries dividing the data into `world` near-equal ranges: the
  // first `extra` chunks carry one extra element. With n < world the tail
  // chunks are empty — their hop messages carry a zero-length payload,
  // which the fabric (and its fault rules) treat like any other message.
  const std::size_t base = data.size() / world;
  const std::size_t extra = data.size() % world;
  auto offset_of = [&](std::size_t c) {
    return c * base + std::min(c, extra);
  };
  auto chunk = [&](std::size_t c) {
    return data.subspan(offset_of(c), offset_of(c + 1) - offset_of(c));
  };

  // Reduce-scatter steps use tag_base + step; all-gather steps use
  // tag_base + world + gather_step (the tag at tag_base + world − 1 is
  // unused). See RingTagSpan in schedule.hpp.
  const std::size_t reduce_steps = world - 1;
  // All-gather frames after the first are forwarded as they arrived; this
  // holds the frame received last hop.
  std::vector<float> forward;
  for (std::size_t step = 0; step < 2 * reduce_steps; ++step) {
    const bool reducing = step < reduce_steps;
    const std::size_t s = reducing ? step : step - reduce_steps;
    const int tag =
        options.tag_base + static_cast<int>(reducing ? s : world + s);
    const std::size_t send_c = (pos + (reducing ? 0 : 1) + world - s) % world;
    net::Message msg;
    msg.tag = tag;
    msg.data = !reducing && s > 0 ? std::move(forward)
                                  : PooledCopy(fabric, chunk(send_c));
    fabric.Send(self, right, std::move(msg));

    const std::size_t recv_c =
        (pos + 2 * world - s - (reducing ? 1 : 0)) % world;
    auto in = RecvFrame(fabric, self, tag, options.hop_timeout,
                        chunk(recv_c), reducing ? Fold::kAdd : Fold::kCopy);
    if (!in.has_value()) return false;
    if (!reducing && s + 1 < reduce_steps) {
      forward = std::move(*in);  // this rank's next gather send
    } else {
      fabric.Pool().Recycle(std::move(*in));
    }
  }
  return true;
}

}  // namespace detail

std::size_t Group::IndexOf(Rank rank) const {
  const auto it = std::find(members.begin(), members.end(), rank);
  RNA_CHECK_MSG(it != members.end(), "rank is not a member of the group");
  return static_cast<std::size_t>(it - members.begin());
}

Group Group::Full(std::size_t world) {
  Group g;
  g.members.resize(world);
  for (std::size_t i = 0; i < world; ++i) g.members[i] = i;
  return g;
}

bool BroadcastFor(net::Fabric& fabric, const Group& group,
                  std::size_t my_index, std::size_t root_index,
                  std::span<float> data, int tag_base,
                  common::Seconds timeout) {
  const std::size_t world = group.Size();
  RNA_CHECK_MSG(my_index < world && root_index < world, "bad group index");
  if (world == 1) return true;
  const Rank self = group.At(my_index);
  if (my_index == root_index) {
    for (std::size_t i = 0; i < world; ++i) {
      if (i == root_index) continue;
      net::Message msg;
      msg.tag = tag_base;
      msg.data = detail::PooledCopy(fabric, data);
      fabric.Send(self, group.At(i), std::move(msg));
    }
    return true;
  }
  auto in = detail::RecvFrame(fabric, self, tag_base, timeout, data,
                              detail::Fold::kCopy);
  if (!in.has_value()) return false;
  fabric.Pool().Recycle(std::move(*in));
  return true;
}

void Broadcast(net::Fabric& fabric, const Group& group, std::size_t my_index,
               std::size_t root_index, std::span<float> data, int tag_base) {
  RNA_CHECK_MSG(BroadcastFor(fabric, group, my_index, root_index, data,
                             tag_base, common::kLosslessDeadline),
                "broadcast failed");
}

bool BarrierFor(net::Fabric& fabric, const Group& group, std::size_t my_index,
                int tag_base, common::Seconds timeout) {
  const std::size_t world = group.Size();
  RNA_CHECK_MSG(my_index < world, "bad group index");
  if (world == 1) return true;
  const Rank self = group.At(my_index);
  const Rank leader = group.At(0);
  // One deadline covers the whole barrier, so a leader stuck waiting for a
  // dead member cannot stretch the wait to (world − 1) × timeout.
  const auto deadline =
      common::SteadyClock::now() + common::FromSeconds(timeout);
  auto recv_step = [&](int tag) {
    const common::Seconds left =
        common::ToSeconds(deadline - common::SteadyClock::now());
    if (left <= 0.0) return std::optional<net::Message>{};
    return fabric.RecvFor(self, tag, left);
  };
  if (my_index == 0) {
    for (std::size_t i = 1; i < world; ++i) {
      if (!recv_step(tag_base).has_value()) return false;
    }
    for (std::size_t i = 1; i < world; ++i) {
      net::Message release;
      release.tag = tag_base + 1;
      fabric.Send(self, group.At(i), std::move(release));
    }
    return true;
  }
  net::Message arrive;
  arrive.tag = tag_base;
  fabric.Send(self, leader, std::move(arrive));
  return recv_step(tag_base + 1).has_value();
}

void Barrier(net::Fabric& fabric, const Group& group, std::size_t my_index,
             int tag_base) {
  RNA_CHECK_MSG(BarrierFor(fabric, group, my_index, tag_base,
                           common::kLosslessDeadline),
                "barrier failed");
}

}  // namespace rna::collectives
