#pragma once

// Controller-state sharding and the recursive parameter-server tree.
//
// ReadinessBoard replaces the controller's flat per-rank readiness vector:
// per-rank buffered-gradient counts are aggregated into fixed-size shards,
// and a global ready-rank tally is maintained incrementally on every
// update. Trigger policies that used to scan O(world) per decision
// (majority / solo / full) now read the O(1) aggregate, so the per-round
// controller cost stays O(1) per worker at 1000-rank worlds.
//
// BuildPsTree bounds the fan-in of the hierarchical parameter-server
// layer: with G groups and fan-in f, leaders of at most f groups share a
// leaf PS node, at most f nodes share a parent, and every non-root node
// periodically folds its state into its parent (kAverage), so no single
// endpoint ever serves more than f direct children.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rna::train {

/// Sharded readiness aggregate for a controller. Counts may go negative
/// transiently (a round report can decrement gradients whose kReady
/// notifications are still in flight); a rank is "ready" iff its count is
/// strictly positive.
class ReadinessBoard {
 public:
  static constexpr std::size_t kDefaultShardSize = 64;

  explicit ReadinessBoard(std::size_t world,
                          std::size_t shard_size = kDefaultShardSize);

  std::size_t Size() const { return counts_.size(); }
  std::size_t ShardCount() const { return shard_ready_.size(); }
  std::size_t ShardSize() const { return shard_size_; }

  /// Buffered-gradient count of `rank` as known from notifications.
  std::int64_t Count(std::size_t rank) const { return counts_[rank]; }

  /// Number of ranks with Count > 0 — O(1).
  std::size_t ReadyRanks() const { return ready_ranks_; }

  /// Ready ranks inside shard `s` — O(1); Σ over shards == ReadyRanks().
  std::size_t ReadyRanksInShard(std::size_t s) const {
    return shard_ready_[s];
  }

  /// Folds a notification (+1) or a round report (-consumed) in, updating
  /// the shard and global aggregates incrementally.
  void Add(std::size_t rank, std::int64_t delta);

  /// Zeroes a departed rank's count (death or leave) so it can never
  /// satisfy a trigger again.
  void Clear(std::size_t rank);

 private:
  std::size_t shard_size_;
  std::vector<std::int64_t> counts_;
  std::vector<std::size_t> shard_ready_;
  std::size_t ready_ranks_ = 0;
};

/// One node of the recursive PS tree. Node 0 is the root; every other node
/// has a parent it periodically folds its state into.
struct PsTreeNode {
  std::size_t parent = 0;               ///< parent node index (self for root)
  std::size_t depth = 0;                ///< 0 at the root
  std::vector<std::size_t> child_nodes; ///< direct child node indices
  std::vector<std::size_t> leaf_groups; ///< groups served here (leaves only)
};

struct PsTree {
  std::vector<PsTreeNode> nodes;       ///< nodes[0] is the root
  std::vector<std::size_t> leaf_of;    ///< group id -> serving leaf node
};

/// Builds the PS node tree for `num_groups` group leaders with per-node
/// fan-in at most `fan_in`. fan_in < 2 (or few groups) degenerates to the
/// classic single-node layout where every leader talks to the root.
PsTree BuildPsTree(std::size_t num_groups, std::size_t fan_in);

}  // namespace rna::train
