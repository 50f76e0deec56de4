// Verification layer for the arena-allocated compute plane.
//
// Three suites:
//   ArenaInvariants — bump-allocator properties: alignment, O(1) reset and
//     storage reuse, high-water tracking, grow-on-demand stats, ReserveExact
//     consolidation and exact-mode OOM rejection, scope nesting.
//   TensorArena — Tensor storage routing and move/copy semantics against
//     arena-backed storage (fresh-copy rule, stale-destination reuse,
//     double-release safety) — run under ASan via the asan-ubsan preset.
//   SteadyState — the PR's headline gate: after warm-up, a full training
//     iteration (SetParamsFrom → ForwardBackward → CopyGradsTo → optimizer
//     step) performs ZERO heap allocations for every model family. This
//     binary replaces global operator new/delete with counting versions
//     (stronger than the pool-stats counters test_dataplane.cpp uses: it
//     sees every allocation in the process, not just pooled ones).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "rna/common/rng.hpp"
#include "rna/nn/network.hpp"
#include "rna/nn/optimizer.hpp"
#include "rna/tensor/arena.hpp"
#include "rna/tensor/tensor.hpp"

// ---------------------------------------------------------------------------
// Counting global allocator. Every operator new form (array / aligned /
// sized) funnels through one atomic counter; malloc keeps ASan interposition
// working when this binary is built under the sanitizer presets.

namespace {

std::atomic<std::size_t> g_heap_allocs{0};

std::size_t HeapAllocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

void* CountedAlloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t padded = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, padded ? padded : align)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace rna {
namespace {

using nn::Batch;
using nn::Network;
using tensor::Arena;
using tensor::Tensor;

// ------------------------------------------------------------- invariants

TEST(ArenaInvariants, AlignmentAndStats) {
  Arena arena;
  float* a = arena.Allocate(3);
  float* b = arena.Allocate(1);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % Arena::kAlignment, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % Arena::kAlignment, 0u);
  EXPECT_NE(a, b);
  const auto& stats = arena.Stats();
  EXPECT_EQ(stats.short_allocs, 2u);
  EXPECT_EQ(stats.short_in_use, 2 * Arena::kAlignment);
  EXPECT_EQ(stats.short_high_water, 2 * Arena::kAlignment);
  EXPECT_EQ(stats.chunk_allocs, 1u);  // both fit in the first chunk
  EXPECT_EQ(arena.Allocate(0), nullptr);
  EXPECT_EQ(arena.Stats().short_allocs, 2u);  // zero-size is not an alloc
}

TEST(ArenaInvariants, ResetReusesStorage) {
  Arena arena;
  float* first = arena.Allocate(128);
  arena.ResetScratch();
  EXPECT_EQ(arena.Stats().short_in_use, 0u);
  EXPECT_EQ(arena.Stats().resets, 1u);
  // The bump pointer rewinds: an identical allocation pattern lands on the
  // identical address, with no new chunk.
  float* again = arena.Allocate(128);
  EXPECT_EQ(first, again);
  EXPECT_EQ(arena.Stats().chunk_allocs, 1u);
}

TEST(ArenaInvariants, GrowsOnDemandAndTracksHighWater) {
  Arena arena;
  const std::size_t chunk_elems = Arena::kMinChunkBytes / sizeof(float);
  arena.Allocate(chunk_elems);  // fills chunk 0 exactly
  arena.Allocate(chunk_elems);  // must grow
  EXPECT_EQ(arena.Stats().chunk_allocs, 2u);
  EXPECT_EQ(arena.Stats().short_high_water, 2 * Arena::kMinChunkBytes);
  arena.ResetScratch();
  EXPECT_EQ(arena.Stats().short_high_water, 2 * Arena::kMinChunkBytes)
      << "high water survives resets";
  // Steady state: the same pattern refills the existing chunks.
  arena.Allocate(chunk_elems);
  arena.Allocate(chunk_elems);
  EXPECT_EQ(arena.Stats().chunk_allocs, 2u);
}

TEST(ArenaInvariants, ReserveExactConsolidatesAndRejectsOverflow) {
  Arena arena;
  // Capacity planning: one grow-mode pass, reset, pin at the high water.
  const std::size_t chunk_elems = Arena::kMinChunkBytes / sizeof(float);
  arena.Allocate(chunk_elems);
  arena.Allocate(chunk_elems);  // forces a second chunk
  arena.ResetScratch();
  arena.ReserveExact();
  EXPECT_TRUE(arena.ExactMode());
  EXPECT_EQ(arena.Stats().reserved_bytes, 2 * Arena::kMinChunkBytes)
      << "short region consolidated to exactly the high water";
  // The planned workload fits in the single consolidated chunk...
  const auto chunks = arena.Stats().chunk_allocs;
  arena.Allocate(chunk_elems);
  arena.Allocate(chunk_elems);
  EXPECT_EQ(arena.Stats().chunk_allocs, chunks);
  // ...and anything beyond the plan is rejected, not silently grown.
  EXPECT_THROW(arena.Allocate(1), std::bad_alloc);
  arena.ResetScratch();
  EXPECT_NO_THROW(arena.Allocate(chunk_elems));
}

TEST(ArenaInvariants, ReserveExactZeroRejectsEverything) {
  Arena arena;
  arena.ReserveExact(0);
  EXPECT_THROW(arena.Allocate(1), std::bad_alloc);
}

TEST(ArenaInvariants, ScopesNestAndRestore) {
  EXPECT_EQ(Arena::Current(), nullptr);
  Arena outer_arena;
  Arena inner_arena;
  {
    Arena::Scope outer(outer_arena);
    EXPECT_EQ(Arena::Current(), &outer_arena);
    {
      Arena::Scope inner(inner_arena);
      EXPECT_EQ(Arena::Current(), &inner_arena);
    }
    EXPECT_EQ(Arena::Current(), &outer_arena);
  }
  EXPECT_EQ(Arena::Current(), nullptr);
}

TEST(ArenaInvariants, StepScopeResetsOnExit) {
  Arena arena;
  {
    Arena::StepScope step(arena);
    arena.Allocate(64);
    EXPECT_GT(arena.Stats().short_in_use, 0u);
  }
  EXPECT_EQ(arena.Stats().short_in_use, 0u);
  EXPECT_EQ(arena.Stats().resets, 1u);
}

// --------------------------------------------------- tensor/arena semantics

TEST(TensorArena, StorageRouting) {
  Tensor heap_backed({2, 3});
  EXPECT_FALSE(heap_backed.ArenaBacked());
  Arena arena;
  {
    Arena::Scope scope(arena);
    Tensor arena_backed({2, 3});
    EXPECT_TRUE(arena_backed.ArenaBacked());
    EXPECT_EQ(arena_backed.Size(), 6u);
    for (float x : arena_backed.Flat()) EXPECT_EQ(x, 0.0f);
  }
}

TEST(TensorArena, CopyUnderArenaTakesFreshStorage) {
  Arena arena;
  Arena::Scope scope(arena);
  Tensor a({4});
  a.Fill(3.0f);
  Tensor b = a;  // copy-construct
  EXPECT_NE(a.Data(), b.Data());
  Tensor c({4});
  const float* c_before = c.Data();
  c = a;  // copy-assign: also fresh storage, never in-place, under an arena
  EXPECT_NE(c.Data(), c_before);
  EXPECT_NE(c.Data(), a.Data());
  EXPECT_EQ(c[3], 3.0f);
}

TEST(TensorArena, HeapCopyAssignReusesMatchingStorage) {
  Tensor a({8});
  a.Fill(1.0f);
  Tensor b({8});
  const float* b_storage = b.Data();
  b = a;
  EXPECT_EQ(b.Data(), b_storage) << "same-size heap copy reuses in place";
  Tensor c({4});
  c = a;  // size change reallocates
  EXPECT_EQ(c.Size(), 8u);
  EXPECT_EQ(c[7], 1.0f);
}

// A destination holding storage from before a ResetScratch must NOT write
// through its stale pointer on reassignment — the bump region may already
// back another live tensor. This is the dangling-storage case; ASan-clean
// by construction because arena chunks stay owned, so the test instead pins
// the no-aliasing rule directly.
TEST(TensorArena, StaleDestinationNeverAliasesLiveTensor) {
  Arena arena;
  Tensor stale;
  {
    Arena::StepScope step(arena);
    stale = Tensor({16});
    stale.Fill(7.0f);
  }  // reset: stale's storage returns to the bump pool
  Arena::StepScope step(arena);
  Tensor live({16});  // reuses the same bump storage
  live.Fill(1.0f);
  Tensor source({16});
  source.Fill(2.0f);
  stale = source;  // must take fresh storage, not scribble over `live`
  EXPECT_NE(stale.Data(), live.Data());
  for (float x : live.Flat()) EXPECT_EQ(x, 1.0f);
  for (float x : stale.Flat()) EXPECT_EQ(x, 2.0f);
}

TEST(TensorArena, MoveStealsAndEmptiesSource) {
  Arena arena;
  Arena::Scope scope(arena);
  Tensor a({3, 3});
  a.Fill(5.0f);
  const float* storage = a.Data();
  Tensor b = std::move(a);
  EXPECT_EQ(b.Data(), storage);
  EXPECT_TRUE(a.Empty());  // NOLINT(bugprone-use-after-move): contract test
  EXPECT_EQ(a.Data(), nullptr);
  Tensor c;
  c = std::move(b);
  EXPECT_EQ(c.Data(), storage);
  EXPECT_TRUE(b.Empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c[8], 5.0f);
}

// Double-release: destroying (or reassigning) two tensors that at some
// point shared a moved-from relationship must not free storage twice. The
// heap case is what ASan would catch; the arena case additionally checks
// destruction after the arena itself died.
TEST(TensorArena, NoDoubleReleaseAfterMove) {
  {
    Tensor a({32});
    Tensor b = std::move(a);
    a = Tensor({8});  // moved-from tensor is reusable
    EXPECT_EQ(a.Size(), 8u);
  }  // both destruct: exactly one owner per storage block
  auto arena = std::make_unique<Arena>();
  Tensor survivor;
  {
    Arena::Scope scope(*arena);
    Tensor tmp({64});
    survivor = std::move(tmp);
  }
  arena.reset();  // arena dies before the tensor
  EXPECT_EQ(survivor.Size(), 64u);
  // survivor's dtor runs after the arena is gone — must not touch the
  // (freed) chunk. Destruction happens at scope exit; reaching the end of
  // the test without ASan complaining is the assertion.
  SUCCEED();
}

// ----------------------------------------------------------- steady state

Batch DenseBatch(std::size_t n, std::size_t dim, std::size_t classes,
                 std::uint64_t seed) {
  common::Rng rng(seed);
  Batch b;
  b.inputs = Tensor({n, dim});
  for (auto& x : b.inputs.Flat()) x = static_cast<float>(rng.Normal(0, 1));
  for (std::size_t i = 0; i < n; ++i) {
    b.labels.push_back(static_cast<std::int32_t>(rng.UniformInt(classes)));
  }
  return b;
}

Batch SequenceBatch(std::size_t n, std::size_t dim, std::size_t classes,
                    std::uint64_t seed) {
  common::Rng rng(seed);
  Batch b;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t len = 3 + rng.UniformInt(5);
    Tensor seq({len, dim});
    for (auto& x : seq.Flat()) x = static_cast<float>(rng.Normal(0, 1));
    b.sequences.push_back(std::move(seq));
    b.labels.push_back(static_cast<std::int32_t>(rng.UniformInt(classes)));
  }
  return b;
}

std::unique_ptr<Network> MakeModel(const std::string& kind) {
  if (kind == "mlp") {
    return std::make_unique<nn::MlpClassifier>(
        std::vector<std::size_t>{16, 32, 4}, 7);
  }
  if (kind == "lstm") return std::make_unique<nn::LstmClassifier>(8, 16, 4, 7);
  if (kind == "deep-lstm") {
    return std::make_unique<nn::DeepLstmClassifier>(8, 12, 2, 4, 7);
  }
  if (kind == "transformer") {
    return std::make_unique<nn::TransformerClassifier>(8, 16, 2, 4, 7);
  }
  return std::make_unique<nn::AttentionClassifier>(8, 12, 4, 7);
}

Batch MakeBatchFor(const std::string& kind) {
  return kind == "mlp" ? DenseBatch(8, 16, 4, 21) : SequenceBatch(6, 8, 4, 21);
}

class SteadyState : public ::testing::TestWithParam<const char*> {};

// The headline gate: after warm-up reaches the arena high-water mark, full
// training iterations allocate nothing from the heap and grow no chunks.
TEST_P(SteadyState, TrainingIterationIsAllocationFree) {
  auto net = MakeModel(GetParam());
  const Batch batch = MakeBatchFor(GetParam());
  ASSERT_TRUE(net->ArenaEnabled());

  const std::size_t dim = net->ParamCount();
  std::vector<float> params(dim), grad(dim);
  net->CopyParamsTo(params);
  nn::SgdMomentum opt(dim, {});

  auto iteration = [&] {
    net->SetParamsFrom(params);
    net->ForwardBackward(batch);
    net->CopyGradsTo(grad);
    opt.Step(params, grad);
  };
  // Warm-up: first iteration grows arena chunks and builds the memoized
  // param/grad lists; the second proves the pattern is stable.
  iteration();
  iteration();

  const std::size_t chunks_before = net->ComputeArena().Stats().chunk_allocs;
  const std::size_t resets_before = net->ComputeArena().Stats().resets;
  const std::size_t heap_before = HeapAllocs();
  for (int i = 0; i < 5; ++i) iteration();
  const std::size_t heap_delta = HeapAllocs() - heap_before;
  const auto& stats = net->ComputeArena().Stats();

  EXPECT_EQ(heap_delta, 0u) << "steady-state iteration hit the heap";
  EXPECT_EQ(stats.chunk_allocs, chunks_before) << "arena grew past warm-up";
  EXPECT_EQ(stats.resets, resets_before + 5) << "one scratch reset per step";
  EXPECT_GT(stats.short_high_water, 0u);
}

// Evaluation (forward-only) is likewise allocation-free.
TEST_P(SteadyState, EvaluateIsAllocationFree) {
  auto net = MakeModel(GetParam());
  const Batch batch = MakeBatchFor(GetParam());
  net->Evaluate(batch);
  net->Evaluate(batch);
  const std::size_t heap_before = HeapAllocs();
  for (int i = 0; i < 3; ++i) net->Evaluate(batch);
  EXPECT_EQ(HeapAllocs() - heap_before, 0u);
}

// ReserveExact capacity planning holds for a real model: pin the arena at
// the warm-up high water; further steps run inside the plan, and the OOM
// rejection fires only for out-of-plan shapes.
TEST_P(SteadyState, ReserveExactPlansModelCapacity) {
  auto net = MakeModel(GetParam());
  const Batch batch = MakeBatchFor(GetParam());
  net->ForwardBackward(batch);  // reach the high water in grow mode
  net->ComputeArena().ReserveExact();
  EXPECT_NO_THROW(net->ForwardBackward(batch));
  EXPECT_NO_THROW(net->Evaluate(batch));
  if (GetParam() != std::string("mlp")) {
    // A much larger batch exceeds the planned capacity: the arena must
    // reject it rather than silently grow.
    const Batch oversized = SequenceBatch(64, 8, 4, 22);
    EXPECT_THROW(net->ForwardBackward(oversized), std::bad_alloc);
    // The step scope still reset scratch during unwind; planned-size work
    // keeps running afterwards.
    EXPECT_NO_THROW(net->ForwardBackward(batch));
  }
}

// Arena-off is the naive path: per-op temporaries come from the heap again.
// This pins EnableArena(false) as a real fallback (the equivalence suite in
// test_nn.cpp relies on it being genuinely pre-arena behaviour).
TEST_P(SteadyState, DisabledArenaFallsBackToHeap) {
  auto net = MakeModel(GetParam());
  net->EnableArena(false);
  const Batch batch = MakeBatchFor(GetParam());
  net->ForwardBackward(batch);
  net->ForwardBackward(batch);
  const std::size_t heap_before = HeapAllocs();
  net->ForwardBackward(batch);
  EXPECT_GT(HeapAllocs() - heap_before, 0u);
  EXPECT_EQ(net->ComputeArena().Stats().short_allocs, 0u);
}

INSTANTIATE_TEST_SUITE_P(Models, SteadyState,
                         ::testing::Values("mlp", "lstm", "deep-lstm",
                                           "transformer", "attention"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace rna
