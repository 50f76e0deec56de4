#include "rna/collectives/schedule.hpp"

#include "rna/collectives/allreduce.hpp"

namespace rna::collectives {

const char* ScheduleName(Schedule s) {
  switch (s) {
    case Schedule::kRing:
      return "ring";
    case Schedule::kTree:
      return "tree";
    case Schedule::kStragglar:
      return "stragglar";
  }
  return "unknown";
}

std::optional<Schedule> ParseSchedule(std::string_view name) {
  if (name == "ring") return Schedule::kRing;
  if (name == "tree") return Schedule::kTree;
  if (name == "stragglar") return Schedule::kStragglar;
  return std::nullopt;
}

namespace detail {

bool TreeAllreduceFor(const CollectiveContext& ctx,
                      const CollectiveOptions& options, std::span<float> data) {
  net::Fabric& fabric = ctx.fabric;
  const std::size_t world = ctx.group.Size();
  const std::size_t pos = ctx.my_index;
  const Rank self = ctx.group.At(pos);
  auto send = [&](std::size_t to_pos, int tag, std::vector<float> frame) {
    net::Message msg;
    msg.tag = tag;
    msg.data = std::move(frame);
    fabric.Send(self, ctx.group.At(to_pos), std::move(msg));
  };

  // Up-sweep: at round `mask` every position with that bit set sends its
  // partial sum to pos − mask, so this position folds the children at
  // pos + mask for each mask below its lowest set bit (the root: below
  // world), and leaves the loop at the mask it sends up at.
  std::size_t mask = 1;
  for (; mask < world && (pos & mask) == 0; mask <<= 1) {
    if (pos + mask >= world) continue;
    auto in = RecvFrame(fabric, self,
                        options.tag_base + static_cast<int>(pos + mask),
                        options.hop_timeout, data, Fold::kAdd);
    if (!in.has_value()) return false;
    fabric.Pool().Recycle(std::move(*in));
  }

  std::vector<float> frame;
  if (pos == 0) {
    // Root: every child (and their subtrees) receives a copy of the
    // finished sum.
    frame = PooledCopy(fabric, data);
  } else {
    send(pos - mask, options.tag_base + static_cast<int>(pos),
         PooledCopy(fabric, data));
    auto in = RecvFrame(fabric, self,
                        options.tag_base + static_cast<int>(world + pos),
                        options.hop_timeout, data, Fold::kCopy);
    if (!in.has_value()) return false;
    if (mask == 1 || pos + 1 == world) {
      // A leaf: no position below this one in the tree.
      fabric.Pool().Recycle(std::move(*in));
      return true;
    }
    frame = std::move(*in);
  }
  // Down-sweep: forward the frame to the children at pos + m, farthest
  // first; the nearest child (pos + 1, which exists here) takes the frame
  // itself and the others get pooled copies.
  for (std::size_t m = mask >> 1; m > 0; m >>= 1) {
    if (pos + m >= world) continue;
    const int tag = options.tag_base + static_cast<int>(world + pos + m);
    send(pos + m, tag, m == 1 ? std::move(frame) : PooledCopy(fabric, frame));
  }
  return true;
}

}  // namespace detail

}  // namespace rna::collectives
