// Microbenchmarks for the arena-allocated compute plane: blocked matmul
// kernels (vectorized vs scalar dispatch), whole train-step throughput for
// every model family plus the perfbench lstm-imbalance shape, and the
// 96-sample evaluation of the lstm-imbalance and mixed-hetero models, with
// the steady-state heap-allocation count measured directly (this binary
// replaces global operator new/delete with counting versions, the same
// technique as tests/test_arena.cpp).
//
// Two modes (same contract as bench_micro_kernels):
//   (default)            google-benchmark sweep.
//   --json-out <path>    pinned workloads written as BENCH_micro_nn.json for
//                        the CI bench-smoke regression gate. The gate pins
//                        `steady_heap_allocs` to an absolute ceiling of ZERO
//                        (tools/bench_gate.py ABSOLUTE_CEILINGS) — a change
//                        that reintroduces per-step allocation fails CI even
//                        if throughput stays inside the regression tolerance.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "rna/common/rng.hpp"
#include "rna/common/simd.hpp"
#include "rna/data/batch_generator.hpp"
#include "rna/data/generators.hpp"
#include "rna/data/shard_view.hpp"
#include "rna/nn/network.hpp"
#include "rna/nn/optimizer.hpp"
#include "rna/tensor/tensor.hpp"

namespace {

std::atomic<std::size_t> g_heap_allocs{0};

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

using namespace rna;

namespace {

// ------------------------------------------------------------ workloads

/// The perfbench lstm-imbalance task: 6-dim length-bucketed Figure 2(a)
/// sequences (VideoLengths(16)), split 80/20 into train and validation.
std::pair<data::Dataset, data::Dataset> LstmImbalanceData() {
  return data::MakeSequenceDataset(960, 6, 6, data::VideoLengths(16.0), 1.2, 5)
      .SplitHoldout(0.2);
}

std::unique_ptr<nn::Network> MakeModel(const std::string& kind) {
  if (kind == "lstm_imbalance") {
    return std::make_unique<nn::LstmClassifier>(6, 16, 6, 7, 0.0);
  }
  if (kind == "mlp") {
    return std::make_unique<nn::MlpClassifier>(
        std::vector<std::size_t>{64, 128, 10}, 7);
  }
  if (kind == "lstm") return std::make_unique<nn::LstmClassifier>(16, 32, 8, 7);
  if (kind == "deep-lstm") {
    return std::make_unique<nn::DeepLstmClassifier>(16, 24, 2, 8, 7);
  }
  if (kind == "transformer") {
    return std::make_unique<nn::TransformerClassifier>(16, 32, 4, 8, 7);
  }
  return std::make_unique<nn::AttentionClassifier>(16, 24, 8, 7);
}

nn::Batch MakeBatchFor(const std::string& kind) {
  common::Rng rng(21);
  nn::Batch b;
  if (kind == "mlp") {
    b.inputs = tensor::Tensor({32, 64});
    for (auto& x : b.inputs.Flat()) x = static_cast<float>(rng.Normal(0, 1));
    for (int i = 0; i < 32; ++i) {
      b.labels.push_back(static_cast<std::int32_t>(rng.UniformInt(10)));
    }
    return b;
  }
  for (int i = 0; i < 8; ++i) {
    const std::size_t len = 3 + rng.UniformInt(6);
    tensor::Tensor seq({len, 16});
    for (auto& x : seq.Flat()) x = static_cast<float>(rng.Normal(0, 1));
    b.sequences.push_back(std::move(seq));
    b.labels.push_back(static_cast<std::int32_t>(rng.UniformInt(8)));
  }
  return b;
}

/// The batches one TrainLoop cycles through: one fixed batch, except the
/// lstm-imbalance shape, which cycles 64 length-bucketed batches of 8 so
/// the per-step cost follows the workload's length mix.
std::vector<nn::Batch> MakeBatchesFor(const std::string& kind) {
  if (kind != "lstm_imbalance") return {MakeBatchFor(kind)};
  const data::Dataset train = LstmImbalanceData().first;
  data::BatchGenerator gen(data::ShardView::All(train),
                           {.batch_size = 8,
                            .seed = 1,
                            .mode = data::SamplingMode::kLengthBucketed,
                            .prefetch_depth = 0});
  std::vector<nn::Batch> batches;
  for (int i = 0; i < 64; ++i) batches.push_back(gen.Next());
  return batches;
}

/// One full training iteration on the flat staging-buffer path — the same
/// sequence every synchronization protocol drives per step.
struct TrainLoop {
  explicit TrainLoop(const std::string& kind)
      : net(MakeModel(kind)), batches(MakeBatchesFor(kind)) {
    const std::size_t dim = net->ParamCount();
    params.resize(dim);
    grad.resize(dim);
    net->CopyParamsTo(params);
    opt = std::make_unique<nn::SgdMomentum>(dim, nn::SgdConfig{});
  }

  void Step() {
    net->SetParamsFrom(params);
    net->ForwardBackward(batches[next]);
    next = (next + 1) % batches.size();
    net->CopyGradsTo(grad);
    opt->Step(params, grad);
  }

  std::unique_ptr<nn::Network> net;
  std::vector<nn::Batch> batches;
  std::size_t next = 0;
  std::vector<float> params, grad;
  std::unique_ptr<nn::SgdMomentum> opt;
};

const char* kModelKinds[] = {"mlp",         "lstm",      "deep-lstm",
                             "transformer", "attention", "lstm_imbalance"};

// ------------------------------------------- google-benchmark sweep mode

void BM_TrainStep(benchmark::State& state) {
  TrainLoop loop(kModelKinds[state.range(0)]);
  loop.Step();  // warm the arena to its high water
  for (auto _ : state) {
    loop.Step();
    benchmark::DoNotOptimize(loop.params.data());
  }
  state.SetLabel(kModelKinds[state.range(0)]);
}
BENCHMARK(BM_TrainStep)->DenseRange(0, 5);

void BM_BlockedMatMul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  common::simd::SetDispatch(state.range(1) == 0
                                ? common::simd::Dispatch::kAuto
                                : common::simd::Dispatch::kScalar);
  common::Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (auto& x : a) x = static_cast<float>(rng.Normal(0, 1));
  for (auto& x : b) x = static_cast<float>(rng.Normal(0, 1));
  for (auto _ : state) {
    common::simd::MatMulNN(a.data(), b.data(), c.data(), n, n, n, 1.0f, 0.0f);
    benchmark::DoNotOptimize(c.data());
  }
  common::simd::SetDispatch(common::simd::Dispatch::kAuto);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_BlockedMatMul)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({192, 0})
    ->Args({192, 1});

// ---------------------------------------------------------- json-out mode

/// FLOP/s of one matmul variant at m=k=n=`n` under the given dispatch.
template <typename Kernel>
double MeasureMatMulFlops(common::simd::Dispatch dispatch, std::size_t n,
                          Kernel&& kernel) {
  constexpr int kWarmup = 3;
  constexpr int kIters = 20;
  common::simd::SetDispatch(dispatch);
  common::Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (auto& x : a) x = static_cast<float>(rng.Normal(0, 1));
  for (auto& x : b) x = static_cast<float>(rng.Normal(0, 1));
  for (int i = 0; i < kWarmup; ++i) kernel(a.data(), b.data(), c.data(), n);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) kernel(a.data(), b.data(), c.data(), n);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  common::simd::SetDispatch(common::simd::Dispatch::kAuto);
  return 2.0 * static_cast<double>(n) * n * n * kIters / secs;
}

template <typename Kernel>
benchutil::BenchRow MatMulRow(const std::string& label, std::size_t n,
                              Kernel&& kernel) {
  benchutil::BenchRow row;
  row.label = label;
  const double wide =
      MeasureMatMulFlops(common::simd::Dispatch::kAuto, n, kernel);
  const double narrow =
      MeasureMatMulFlops(common::simd::Dispatch::kScalar, n, kernel);
  row.values["flops_auto_per_s"] = wide;
  row.values["flops_scalar_per_s"] = narrow;
  row.values["speedup"] = wide / narrow;
  return row;
}

benchutil::BenchRow TrainStepRow(const std::string& kind) {
  benchutil::BenchRow row;
  row.label = "train_step_" + kind;
  TrainLoop loop(kind);
  // Warm up over every batch once, so the arena has seen the largest one.
  const std::size_t warmup = std::max<std::size_t>(3, loop.batches.size());
  const std::size_t iters = std::max<std::size_t>(30, loop.batches.size());
  for (std::size_t i = 0; i < warmup; ++i) loop.Step();

  const std::size_t heap_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) loop.Step();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const std::size_t heap_delta =
      g_heap_allocs.load(std::memory_order_relaxed) - heap_before;

  row.values["steps_per_s"] = static_cast<double>(iters) / secs;
  // Total heap allocations across all measured steps — the gate pins this
  // to an absolute ceiling of zero.
  row.values["steady_heap_allocs"] = static_cast<double>(heap_delta);
  row.values["arena_high_water_kb"] =
      static_cast<double>(loop.net->ComputeArena().Stats().short_high_water) /
      1024.0;
  return row;
}

/// Arena high water, evals/s and steady-state heap allocations of
/// `net`'s Evaluate on one 96-sample validation slice.
benchutil::BenchRow EvalRow(const std::string& label, nn::Network& net,
                            const data::Dataset& val) {
  constexpr int kWarmup = 3;
  constexpr int kIters = 30;
  benchutil::BenchRow row;
  row.label = label;
  common::Rng rng(3);
  std::vector<std::size_t> indices(96);
  for (auto& i : indices) i = rng.UniformInt(val.Size());
  const nn::Batch batch = val.MakeBatch(indices);
  for (int i = 0; i < kWarmup; ++i) net.Evaluate(batch);

  const std::size_t heap_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) net.Evaluate(batch);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const std::size_t heap_delta =
      g_heap_allocs.load(std::memory_order_relaxed) - heap_before;

  row.values["evals_per_s"] = kIters / secs;
  row.values["steady_heap_allocs"] = static_cast<double>(heap_delta);
  row.values["arena_high_water_kb"] =
      static_cast<double>(net.ComputeArena().Stats().short_high_water) /
      1024.0;
  return row;
}

/// The lstm-imbalance task's evaluation (the forward-only path of every
/// monitor tick and end-of-run slice).
benchutil::BenchRow EvalLstmRow() {
  auto net = MakeModel("lstm_imbalance");
  return EvalRow("eval_lstm_96", *net, LstmImbalanceData().second);
}

/// The perfbench mixed-hetero task's evaluation: its MLP {16, 48, 48, 32, 8}
/// on 16-dim Gaussian clusters.
benchutil::BenchRow EvalMlpRow() {
  nn::MlpClassifier net({16, 48, 48, 32, 8}, 7);
  const data::Dataset val =
      data::MakeGaussianClusters(4000, 16, 8, 0.7, 5).SplitHoldout(0.2).second;
  return EvalRow("eval_mlp_96", net, val);
}

int JsonMain(const std::string& path) {
  std::vector<benchutil::BenchRow> rows;
  const std::size_t n = 128;
  rows.push_back(MatMulRow("matmul_nn_128", n,
                           [](const float* a, const float* b, float* c,
                              std::size_t d) {
                             common::simd::MatMulNN(a, b, c, d, d, d, 1.0f,
                                                    0.0f);
                           }));
  rows.push_back(MatMulRow("matmul_nt_128", n,
                           [](const float* a, const float* b, float* c,
                              std::size_t d) {
                             common::simd::MatMulNT(a, b, c, d, d, d, 1.0f,
                                                    0.0f);
                           }));
  rows.push_back(MatMulRow("matmul_tn_128", n,
                           [](const float* a, const float* b, float* c,
                              std::size_t d) {
                             common::simd::MatMulTN(a, b, c, d, d, d, 1.0f,
                                                    0.0f);
                           }));
  for (const char* kind : kModelKinds) {
    rows.push_back(TrainStepRow(kind));
  }
  rows.push_back(EvalLstmRow());
  rows.push_back(EvalMlpRow());
  benchutil::WriteBenchJson(path, "micro_nn", rows);
  for (const auto& row : rows) {
    std::printf("%-24s", row.label.c_str());
    for (const auto& [key, value] : row.values) {
      std::printf("  %s=%.4g", key.c_str(), value);
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json-out" && i + 1 < argc) {
      json_out = argv[++i];
    } else if (arg.rfind("--json-out=", 0) == 0) {
      json_out = arg.substr(11);
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (!json_out.empty()) return JsonMain(json_out);
  int rest_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&rest_argc, rest.data());
  if (benchmark::ReportUnrecognizedArguments(rest_argc, rest.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
