#include "rna/train/readiness.hpp"

#include "rna/common/check.hpp"

namespace rna::train {

void ReadinessBoard::Add(std::size_t i, std::int64_t delta) {
  RNA_CHECK(i < counts_.size());
  const bool was_ready = counts_[i] > 0;
  counts_[i] += delta;
  const bool is_ready = counts_[i] > 0;
  if (was_ready == is_ready) return;
  if (is_ready) {
    ++ready_ranks_;
  } else {
    --ready_ranks_;
  }
}

void ReadinessBoard::Clear(std::size_t i) { Add(i, -counts_[i]); }

}  // namespace rna::train
