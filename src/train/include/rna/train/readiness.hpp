#pragma once

// A controller's view of how many unreduced gradients each group member
// has buffered. The ready-rank tally is maintained incrementally on every
// update, so the built-in trigger policies (majority / solo / full) read it
// in O(1) instead of scanning the group per decision.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rna::train {

/// Per-member buffered-gradient counts plus their ready tally. Counts may
/// go negative transiently (a round report can decrement gradients whose
/// kReady notifications are still in flight); a member is "ready" iff its
/// count is strictly positive.
class ReadinessBoard {
 public:
  explicit ReadinessBoard(std::size_t size) : counts_(size, 0) {}

  std::size_t Size() const { return counts_.size(); }

  /// Buffered-gradient count of member `i` as known from notifications.
  std::int64_t Count(std::size_t i) const { return counts_[i]; }

  /// Number of members with Count > 0 — O(1).
  std::size_t ReadyRanks() const { return ready_ranks_; }

  /// Folds a notification (+1) or a round report (-consumed) in, updating
  /// the ready tally incrementally.
  void Add(std::size_t i, std::int64_t delta);

  /// Zeroes a dead member's count so it can never satisfy a trigger again.
  void Clear(std::size_t i);

 private:
  std::vector<std::int64_t> counts_;
  std::size_t ready_ranks_ = 0;
};

}  // namespace rna::train
