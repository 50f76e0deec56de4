#pragma once

// Per-worker compute arena backing Tensor storage (ROADMAP item 2, after
// Marian's TensorAllocator/reserveExact): one bump-allocated region of
// per-step scratch (activations, per-op temporaries), freed in O(1) by
// ResetScratch() at the end of every training step.
//
// Chunks grow on demand so variable-length sequences cannot OOM; after the
// first step the high-water mark is reached and steady-state iterations
// perform zero heap allocations (ctest-gated by tests/test_arena.cpp).
// ReserveExact() consolidates the region into one exactly-sized chunk
// and flips the arena into exact mode, where any growth beyond the reserved
// capacity throws std::bad_alloc — the capacity-planning contract.
//
// The arena is single-owner: one Network (worker replica) per arena, no
// internal locking. Cross-thread use is per-thread-arena by construction;
// the race-stress suite locks this in under TSan.

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

namespace rna::tensor {

struct ArenaStats {
  std::size_t chunk_allocs = 0;      ///< heap chunk allocations (growth events)
  std::size_t reserved_bytes = 0;    ///< total chunk capacity
  std::size_t short_in_use = 0;      ///< bytes currently bump-allocated
  std::size_t short_high_water = 0;  ///< max short_in_use ever observed
  std::size_t short_allocs = 0;      ///< Allocate calls
  std::size_t resets = 0;            ///< ResetScratch() calls
};

class Arena {
 public:
  static constexpr std::size_t kAlignment = 64;       // cache line
  static constexpr std::size_t kMinChunkBytes = 1 << 20;

  Arena() = default;
  /// Pre-reserves one chunk of at least `initial_bytes`
  /// (rounded up to kAlignment); the arena stays in grow-on-demand mode.
  explicit Arena(std::size_t initial_bytes);
  ~Arena() = default;

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `elems` floats, 64-byte aligned, NOT zeroed. Returns
  /// nullptr for elems == 0. Grows by a new chunk when the region is full;
  /// in exact mode a growth throws std::bad_alloc instead.
  float* Allocate(std::size_t elems);

  /// O(1) release of every allocation. Pointers handed out before are
  /// invalid afterwards (Tensor copy semantics in tensor.hpp are designed
  /// so no live Tensor reuses them).
  void ResetScratch();

  /// Consolidates the region into a single chunk of exactly `short_bytes`
  /// (rounded up to kAlignment) and enters exact mode: any allocation
  /// beyond this capacity throws std::bad_alloc. Requires no live
  /// allocations (call after ResetScratch()).
  void ReserveExact(std::size_t short_bytes);

  /// ReserveExact at the observed high-water mark — the capacity-planning
  /// idiom: run one step in grow mode, reset, then pin the capacity.
  void ReserveExact() { ReserveExact(stats_.short_high_water); }

  /// Leaves exact mode: the region may grow on demand again. The
  /// reserved chunk is kept. Used when a pinned training replica is
  /// repurposed for work with a different footprint (e.g. the terminal
  /// full-dataset evaluation, whose slices dwarf a training batch).
  void Relax() { exact_ = false; }

  bool ExactMode() const { return exact_; }
  const ArenaStats& Stats() const { return stats_; }

  /// The thread's active arena (nullptr when none). Tensor allocations go
  /// through this hook; see Scope below.
  static Arena* Current();

  /// RAII activation: makes this arena Current() on the calling thread for
  /// the scope's lifetime, restoring the previous one on exit.
  class Scope {
   public:
    explicit Scope(Arena& arena);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Arena* previous_;
  };

  /// Scope + ResetScratch() on exit: wraps exactly one compute step.
  class StepScope {
   public:
    explicit StepScope(Arena& arena) : arena_(arena), scope_(arena) {}
    ~StepScope() { arena_.ResetScratch(); }
    StepScope(const StepScope&) = delete;
    StepScope& operator=(const StepScope&) = delete;

   private:
    Arena& arena_;
    Scope scope_;
  };

 private:
  struct ChunkDelete {
    void operator()(std::byte* p) const {
      ::operator delete[](p, std::align_val_t{kAlignment});
    }
  };
  using ChunkPtr = std::unique_ptr<std::byte[], ChunkDelete>;

  struct Chunk {
    ChunkPtr data;
    std::size_t capacity = 0;
    std::size_t used = 0;
  };

  Chunk NewChunk(std::size_t capacity);
  float* Bump(std::size_t bytes);

  /// Chunks filled front to back; `cursor_` indexes the one being filled.
  std::vector<Chunk> chunks_;
  std::size_t cursor_ = 0;
  bool exact_ = false;
  ArenaStats stats_;
};

}  // namespace rna::tensor
