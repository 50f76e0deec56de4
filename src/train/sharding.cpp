#include "rna/train/sharding.hpp"

#include <algorithm>

#include "rna/common/check.hpp"

namespace rna::train {

ReadinessBoard::ReadinessBoard(std::size_t world, std::size_t shard_size)
    : shard_size_(std::max<std::size_t>(1, shard_size)),
      counts_(world, 0),
      shard_ready_((world + shard_size_ - 1) / shard_size_, 0) {}

void ReadinessBoard::Add(std::size_t rank, std::int64_t delta) {
  RNA_CHECK(rank < counts_.size());
  const bool was_ready = counts_[rank] > 0;
  counts_[rank] += delta;
  const bool is_ready = counts_[rank] > 0;
  if (was_ready == is_ready) return;
  const std::size_t shard = rank / shard_size_;
  if (is_ready) {
    ++shard_ready_[shard];
    ++ready_ranks_;
  } else {
    --shard_ready_[shard];
    --ready_ranks_;
  }
}

void ReadinessBoard::Clear(std::size_t rank) {
  Add(rank, -counts_[rank]);
}

PsTree BuildPsTree(std::size_t num_groups, std::size_t fan_in) {
  PsTree tree;
  tree.leaf_of.assign(std::max<std::size_t>(num_groups, 1), 0);
  if (fan_in < 2 || num_groups <= fan_in) {
    // Flat layout: one root node serving every leader directly.
    tree.nodes.push_back(PsTreeNode{});
    for (std::size_t g = 0; g < num_groups; ++g) {
      tree.nodes[0].leaf_groups.push_back(g);
    }
    return tree;
  }

  // Build bottom-up: the leaf layer packs groups fan_in at a time, then
  // each layer packs the one below it until a single root remains. Nodes
  // are then emitted top-down so node 0 is the root and every parent index
  // precedes its children (servers start parents before children).
  std::vector<std::vector<std::size_t>> layers;  // leaf layer first
  std::size_t width = (num_groups + fan_in - 1) / fan_in;
  while (true) {
    layers.emplace_back(width);
    if (width == 1) break;
    width = (width + fan_in - 1) / fan_in;
  }

  // Assign node ids top-down: root layer is layers.back().
  std::size_t next_id = 0;
  for (auto it = layers.rbegin(); it != layers.rend(); ++it) {
    for (auto& id : *it) id = next_id++;
  }
  tree.nodes.resize(next_id);
  for (std::size_t li = 0; li + 1 < layers.size(); ++li) {
    // layers[li] is below layers[li + 1]; child i hangs off parent i/fan_in.
    for (std::size_t i = 0; i < layers[li].size(); ++i) {
      const std::size_t child = layers[li][i];
      const std::size_t parent = layers[li + 1][i / fan_in];
      tree.nodes[child].parent = parent;
      tree.nodes[parent].child_nodes.push_back(child);
    }
  }
  const std::size_t root = layers.back()[0];
  RNA_CHECK(root == 0);
  tree.nodes[root].parent = root;
  for (std::size_t li = layers.size(); li-- > 0;) {
    for (const std::size_t id : layers[li]) {
      tree.nodes[id].depth = layers.size() - 1 - li;
    }
  }
  for (std::size_t g = 0; g < num_groups; ++g) {
    const std::size_t leaf = layers[0][g / fan_in];
    tree.leaf_of[g] = leaf;
    tree.nodes[leaf].leaf_groups.push_back(g);
  }
  return tree;
}

}  // namespace rna::train
