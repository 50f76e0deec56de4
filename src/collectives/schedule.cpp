#include "rna/collectives/schedule.hpp"

#include <algorithm>

#include "rna/collectives/allreduce.hpp"
#include "rna/common/check.hpp"

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
                      const CollectiveOptions& options, std::span<float> data,
                      std::span<float> residual) {
  net::Fabric& fabric = ctx.fabric;
  const std::size_t world = ctx.group.Size();
  const std::size_t pos = ctx.my_index;
  const Rank self = ctx.group.At(pos);
  const net::wire::Format format = ToWireFormat(options.compression);
  const std::size_t exact_tail = options.exact_tail;
  auto encode = [&] {
    const std::size_t k = format == net::wire::Format::kTopK
                              ? net::wire::TopKCount(data.size() - exact_tail,
                                                     options.topk_fraction)
                              : 0;
    return net::wire::Encode(fabric.Pool(), format, data, residual, k,
                             exact_tail);
  };
  auto send = [&](std::size_t to_pos, int tag, std::vector<float> frame) {
    fabric.CountWire(format, data.size() * sizeof(float),
                     frame.size() * sizeof(float));
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
                        options.hop_timeout, format, data,
                        net::wire::Fold::kAdd, exact_tail);
    if (!in.has_value()) return false;
    fabric.Pool().Recycle(std::move(*in));
  }

  std::vector<float> frame;
  if (pos == 0) {
    // Root: encode the finished sum once; every child (and their subtrees)
    // receives this exact frame, and the root self-applies the lossy
    // round-trip so all ranks end bitwise identical.
    frame = encode();
    if (format != net::wire::Format::kRaw) {
      RNA_CHECK(net::wire::Decode(format, frame, data,
                                  net::wire::Fold::kAssign, exact_tail));
    }
  } else {
    send(pos - mask, options.tag_base + static_cast<int>(pos), encode());
    auto in = RecvFrame(fabric, self,
                        options.tag_base + static_cast<int>(world + pos),
                        options.hop_timeout, format, data,
                        net::wire::Fold::kAssign, exact_tail);
    if (!in.has_value()) return false;
    if (mask == 1 || pos + 1 == world) {
      // A leaf: no position below this one in the tree.
      fabric.Pool().Recycle(std::move(*in));
      return true;
    }
    frame = std::move(*in);
  }
  // Down-sweep: forward the frame verbatim to the children at pos + m,
  // farthest first; the nearest child (pos + 1, which exists here) takes
  // the frame itself and the others get pooled copies.
  for (std::size_t m = mask >> 1; m > 0; m >>= 1) {
    if (pos + m >= world) continue;
    const int tag = options.tag_base + static_cast<int>(world + pos + m);
    if (m == 1) {
      send(pos + m, tag, std::move(frame));
    } else {
      std::vector<float> copy = fabric.Pool().Acquire(frame.size());
      std::copy(frame.begin(), frame.end(), copy.begin());
      send(pos + m, tag, std::move(copy));
    }
  }
  return true;
}

}  // namespace detail

}  // namespace rna::collectives
