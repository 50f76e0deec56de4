#include "rna/tensor/arena.hpp"

#include "rna/common/check.hpp"

namespace rna::tensor {

namespace {

thread_local Arena* t_current_arena = nullptr;

std::size_t RoundUp(std::size_t bytes) {
  return (bytes + Arena::kAlignment - 1) & ~(Arena::kAlignment - 1);
}

}  // namespace

Arena* Arena::Current() { return t_current_arena; }

Arena::Scope::Scope(Arena& arena) : previous_(t_current_arena) {
  t_current_arena = &arena;
}

Arena::Scope::~Scope() { t_current_arena = previous_; }

Arena::Chunk Arena::NewChunk(std::size_t capacity) {
  Chunk chunk;
  chunk.data.reset(static_cast<std::byte*>(
      ::operator new[](capacity, std::align_val_t{kAlignment})));
  chunk.capacity = capacity;
  ++stats_.chunk_allocs;
  stats_.reserved_bytes += capacity;
  return chunk;
}

float* Arena::Bump(std::size_t bytes) {
  for (; cursor_ < chunks_.size(); ++cursor_) {
    Chunk& chunk = chunks_[cursor_];
    if (chunk.capacity - chunk.used >= bytes) {
      float* out = reinterpret_cast<float*>(chunk.data.get() + chunk.used);
      chunk.used += bytes;
      return out;
    }
  }
  // In exact mode the arena is capacity-planned: growth is an OOM.
  if (exact_) throw std::bad_alloc();
  chunks_.push_back(NewChunk(bytes > kMinChunkBytes ? bytes : kMinChunkBytes));
  cursor_ = chunks_.size() - 1;
  Chunk& chunk = chunks_.back();
  chunk.used = bytes;
  return reinterpret_cast<float*>(chunk.data.get());
}

float* Arena::Allocate(std::size_t elems) {
  if (elems == 0) return nullptr;
  const std::size_t bytes = RoundUp(elems * sizeof(float));
  float* out = Bump(bytes);
  ++stats_.short_allocs;
  stats_.short_in_use += bytes;
  if (stats_.short_in_use > stats_.short_high_water) {
    stats_.short_high_water = stats_.short_in_use;
  }
  return out;
}

void Arena::ResetScratch() {
  for (Chunk& chunk : chunks_) chunk.used = 0;
  cursor_ = 0;
  stats_.short_in_use = 0;
  ++stats_.resets;
}

void Arena::ReserveExact(std::size_t short_bytes) {
  RNA_CHECK_MSG(stats_.short_in_use == 0,
                "ReserveExact requires no live scratch (call ResetScratch)");
  for (const Chunk& chunk : chunks_) {
    stats_.reserved_bytes -= chunk.capacity;
  }
  chunks_.clear();
  cursor_ = 0;
  if (short_bytes > 0) {
    chunks_.push_back(NewChunk(RoundUp(short_bytes)));
  }
  exact_ = true;
}

}  // namespace rna::tensor
