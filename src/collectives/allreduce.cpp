#include "rna/collectives/allreduce.hpp"

#include <algorithm>
#include <cmath>

#include "rna/common/check.hpp"
#include "rna/common/simd.hpp"

namespace rna::collectives {

bool AllreduceFor(const CollectiveContext& ctx,
                  const CollectiveOptions& options, std::span<float> data) {
  const std::size_t world = ctx.group.Size();
  RNA_CHECK_MSG(world > 0 && ctx.my_index < world, "bad group index");
  RNA_CHECK_MSG(options.exact_tail <= data.size(),
                "exact tail larger than the buffer");
  RNA_CHECK_MSG(options.hop_timeout > 0.0, "hop timeout must be positive");
  if (options.compression == Compression::kTopK) {
    RNA_CHECK_MSG(options.topk_fraction > 0.0 && options.topk_fraction <= 1.0,
                  "top-k fraction must be in (0, 1]");
  }
  std::span<float> residual{};
  if (options.compression != Compression::kNone &&
      options.feedback != nullptr) {
    if (options.feedback->Size() < data.size()) {
      options.feedback->EnsureSize(data.size());
    }
    residual = options.feedback->Slice(0, data.size());
  }
  if (world == 1) return true;
  return options.schedule == Schedule::kTree
             ? detail::TreeAllreduceFor(ctx, options, data, residual)
             : detail::RingAllreduceFor(ctx, options, data, residual);
}

void Allreduce(const CollectiveContext& ctx, const CollectiveOptions& options,
               std::span<float> data) {
  RNA_CHECK_MSG(AllreduceFor(ctx, options, data), "allreduce failed");
}

PartialResult PartialAllreduceFor(const CollectiveContext& ctx,
                                  const CollectiveOptions& options,
                                  std::span<float> data, bool contributes) {
  // The contributor flag travels as one extra element appended to the
  // payload — carried bit-exact through every compression policy via the
  // wire formats' exact tail. A single pass reduces both gradient and Σw.
  // The working buffer comes from the fabric pool: a round-per-millisecond
  // protocol would otherwise allocate a gradient-sized vector per round.
  net::Fabric& fabric = ctx.fabric;
  std::vector<float> buffer = fabric.Pool().Acquire(data.size() + 1);
  if (contributes) {
    std::copy(data.begin(), data.end(), buffer.begin());
    buffer.back() = 1.0f;
  } else {
    // Null gradient: keep the communication graph, contribute zeros.
    std::fill(buffer.begin(), buffer.end(), 0.0f);
  }

  CollectiveOptions partial = options;
  partial.exact_tail = 1;

  PartialResult result;
  if (!AllreduceFor(ctx, partial, buffer)) {
    // Aborted mid-pass (member crash or shutdown): the partial sums are
    // meaningless — zero the output and tell the caller to skip the step.
    std::fill(data.begin(), data.end(), 0.0f);
    fabric.Pool().Recycle(std::move(buffer));
    result.ok = false;
    return result;
  }
  result.contributors = static_cast<std::size_t>(std::lround(buffer.back()));
  if (result.contributors > 0) {
    const float w = 1.0f / static_cast<float>(result.contributors);
    common::simd::ScaledCopy(
        data, std::span<const float>(buffer.data(), data.size()), w);
  } else {
    std::fill(data.begin(), data.end(), 0.0f);
  }
  fabric.Pool().Recycle(std::move(buffer));
  return result;
}

}  // namespace rna::collectives
