// Microbenchmarks for the compute kernels underlying the training
// substrate: matmul variants, LSTM step cost vs sequence length (the
// physical basis of Figure 2's imbalance), attention cost vs length, and
// the vectorized data-plane and activation kernels (rna/common/simd.hpp)
// against their scalar references.
//
// Two modes (same contract as bench_micro_fabric):
//   (default)            google-benchmark sweep.
//   --json-out <path>    pinned kernel workloads written as a
//                        BENCH_micro_kernels.json artifact for the CI
//                        bench-smoke regression gate (tools/bench_gate.py).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "rna/common/rng.hpp"
#include "rna/common/simd.hpp"
#include "rna/nn/attention.hpp"
#include "rna/nn/lstm.hpp"
#include "rna/tensor/ops.hpp"

using namespace rna;

namespace {

void BM_MatMul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  common::Rng rng(1);
  tensor::Tensor a({n, n}), b({n, n}), c({n, n});
  for (auto& x : a.Flat()) x = static_cast<float>(rng.Normal(0, 1));
  for (auto& x : b.Flat()) x = static_cast<float>(rng.Normal(0, 1));
  for (auto _ : state) {
    tensor::MatMul(a, b, c);
    benchmark::DoNotOptimize(c.Data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_MatMul)->Arg(16)->Arg(64)->Arg(128);

void BM_Axpy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<float> x(n, 1.0f), y(n, 2.0f);
  for (auto _ : state) {
    tensor::Axpy(0.5f, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(float) * 2));
}
BENCHMARK(BM_Axpy)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

/// The data-plane kernels, vectorized (kAuto) vs scalar reference — the
/// range(1) flag selects the dispatch so the speedup is visible in one
/// sweep.
template <typename Kernel>
void RunKernelBench(benchmark::State& state, Kernel&& kernel) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dispatch = state.range(1) == 0 ? common::simd::Dispatch::kAuto
                                            : common::simd::Dispatch::kScalar;
  common::simd::SetDispatch(dispatch);
  std::vector<float> dst(n, 1.0f), src(n, 0.5f);
  for (auto _ : state) {
    kernel(dst, src);
    benchmark::DoNotOptimize(dst.data());
  }
  common::simd::SetDispatch(common::simd::Dispatch::kAuto);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(float) * 2));
}

void BM_SimdAddInto(benchmark::State& state) {
  RunKernelBench(state, [](std::span<float> d, std::span<const float> s) {
    common::simd::AddInto(d, s);
  });
}
BENCHMARK(BM_SimdAddInto)->Args({1 << 16, 0})->Args({1 << 16, 1});

void BM_SimdScaleInto(benchmark::State& state) {
  RunKernelBench(state, [](std::span<float> d, std::span<const float>) {
    common::simd::ScaleInto(d, 0.999f);
  });
}
BENCHMARK(BM_SimdScaleInto)->Args({1 << 16, 0})->Args({1 << 16, 1});

void BM_SimdWeightedAccumulate(benchmark::State& state) {
  RunKernelBench(state, [](std::span<float> d, std::span<const float> s) {
    common::simd::WeightedAccumulate(d, s, 0.25f);
  });
}
BENCHMARK(BM_SimdWeightedAccumulate)->Args({1 << 16, 0})->Args({1 << 16, 1});

/// Activation inputs spread over [-8, 8): the range LSTM gates see.
std::vector<float> ActivationInputs(std::size_t n) {
  std::vector<float> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = -8.0f + 16.0f * static_cast<float>(i) / static_cast<float>(n);
  }
  return x;
}

/// The activation kernels, wide (kAuto) vs scalar reference, like
/// RunKernelBench.
template <typename Kernel>
void RunActivationBench(benchmark::State& state, Kernel&& kernel) {
  const auto n = static_cast<std::size_t>(state.range(0));
  common::simd::SetDispatch(state.range(1) == 0
                                ? common::simd::Dispatch::kAuto
                                : common::simd::Dispatch::kScalar);
  const std::vector<float> x = ActivationInputs(n);
  std::vector<float> y(n);
  for (auto _ : state) {
    kernel(x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  common::simd::SetDispatch(common::simd::Dispatch::kAuto);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_SimdSigmoid(benchmark::State& state) {
  RunActivationBench(state, [](const float* x, float* y, std::size_t n) {
    common::simd::Sigmoid(x, y, n);
  });
}
BENCHMARK(BM_SimdSigmoid)->Args({1 << 12, 0})->Args({1 << 12, 1});

void BM_SimdTanh(benchmark::State& state) {
  RunActivationBench(state, [](const float* x, float* y, std::size_t n) {
    common::simd::Tanh(x, y, n);
  });
}
BENCHMARK(BM_SimdTanh)->Args({1 << 12, 0})->Args({1 << 12, 1});

/// LSTM forward+backward cost of one sequence as a function of its length —
/// linear, which is exactly the inherent-imbalance mechanism of Figure 2(b).
void BM_LstmSequence(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  common::Rng rng(2);
  nn::LstmLayer lstm(8, 32, rng);
  tensor::Tensor x({len, 8});
  for (auto& v : x.Flat()) v = static_cast<float>(rng.Normal(0, 1));
  const nn::SequencePack pack(std::span<const tensor::Tensor>(&x, 1));
  tensor::Tensor dh_last({1, 32});
  dh_last.Fill(0.01f);
  const tensor::Tensor dh = pack.ScatterLast(dh_last);
  for (auto _ : state) {
    tensor::Tensor h = lstm.Forward(pack, pack.Inputs());
    benchmark::DoNotOptimize(h.Data());
    tensor::Tensor dx = lstm.Backward(pack, dh, /*input_grad=*/true);
    benchmark::DoNotOptimize(dx.Data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}
BENCHMARK(BM_LstmSequence)->Arg(8)->Arg(32)->Arg(128)->Arg(256);

/// Attention cost vs length — quadratic (the Transformer imbalance).
void BM_AttentionSequence(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  common::Rng rng(3);
  nn::AttentionBlock attention(8, 24, rng);
  tensor::Tensor x({len, 8});
  for (auto& v : x.Flat()) v = static_cast<float>(rng.Normal(0, 1));
  tensor::Tensor dy({len, 24});
  dy.Fill(0.01f);
  for (auto _ : state) {
    tensor::Tensor y = attention.Forward(x);
    benchmark::DoNotOptimize(y.Data());
    tensor::Tensor dx = attention.Backward(dy);
    benchmark::DoNotOptimize(dx.Data());
  }
}
BENCHMARK(BM_AttentionSequence)->Arg(8)->Arg(32)->Arg(128);

// ---------------------------------------------------------------------------
// --json-out mode

/// GB/s of one kernel at 1M floats under the given dispatch.
template <typename Kernel>
double MeasureKernelGbps(common::simd::Dispatch dispatch, Kernel&& kernel) {
  constexpr std::size_t kElems = 1u << 20;
  constexpr int kWarmup = 5;
  constexpr int kIters = 50;
  common::simd::SetDispatch(dispatch);
  std::vector<float> dst(kElems, 1.0f), src(kElems, 0.5f);
  for (int i = 0; i < kWarmup; ++i) kernel(dst, src);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) kernel(dst, src);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  common::simd::SetDispatch(common::simd::Dispatch::kAuto);
  // dst read + write + src read per element.
  return static_cast<double>(kElems) * sizeof(float) * 2 * kIters / secs /
         1e9;
}

template <typename Kernel>
benchutil::BenchRow KernelRow(const std::string& label, Kernel&& kernel) {
  benchutil::BenchRow row;
  row.label = label;
  const double wide =
      MeasureKernelGbps(common::simd::Dispatch::kAuto, kernel);
  const double narrow =
      MeasureKernelGbps(common::simd::Dispatch::kScalar, kernel);
  row.values["gbps_auto"] = wide;
  row.values["gbps_scalar"] = narrow;
  row.values["speedup"] = wide / narrow;
  return row;
}

/// Elements per second of one activation over 64K inputs. `kernel` is
/// called with (x, y, n); the dispatch applies to the simd kernels only.
template <typename Kernel>
double MeasureActivationRate(common::simd::Dispatch dispatch,
                             Kernel&& kernel) {
  constexpr std::size_t kElems = 1u << 16;
  constexpr int kWarmup = 5;
  constexpr int kIters = 200;
  common::simd::SetDispatch(dispatch);
  const std::vector<float> x = ActivationInputs(kElems);
  std::vector<float> y(kElems);
  for (int i = 0; i < kWarmup; ++i) kernel(x.data(), y.data(), kElems);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) kernel(x.data(), y.data(), kElems);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  common::simd::SetDispatch(common::simd::Dispatch::kAuto);
  return static_cast<double>(kElems) * kIters / secs;
}

/// Wide vs scalar rate of one activation kernel, with the libm float
/// formula it replaces as an informational ns/element reference.
template <typename Kernel, typename Libm>
benchutil::BenchRow ActivationRow(const std::string& label, Kernel&& kernel,
                                  Libm&& libm) {
  benchutil::BenchRow row;
  row.label = label;
  const double wide = MeasureActivationRate(common::simd::Dispatch::kAuto,
                                            kernel);
  const double narrow =
      MeasureActivationRate(common::simd::Dispatch::kScalar, kernel);
  const double reference = MeasureActivationRate(
      common::simd::Dispatch::kAuto,
      [&](const float* x, float* y, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) y[i] = libm(x[i]);
      });
  row.values["elems_auto_per_s"] = wide;
  row.values["elems_scalar_per_s"] = narrow;
  row.values["speedup"] = wide / narrow;
  row.values["ns_per_elem_auto"] = 1e9 / wide;
  row.values["ns_per_elem_libm"] = 1e9 / reference;
  return row;
}

int JsonMain(const std::string& path) {
  std::vector<benchutil::BenchRow> rows;
  rows.push_back(
      KernelRow("add_into_1m", [](std::span<float> d,
                                  std::span<const float> s) {
        common::simd::AddInto(d, s);
      }));
  rows.push_back(
      KernelRow("scale_into_1m", [](std::span<float> d,
                                    std::span<const float>) {
        common::simd::ScaleInto(d, 0.999f);
      }));
  rows.push_back(KernelRow(
      "weighted_accumulate_1m",
      [](std::span<float> d, std::span<const float> s) {
        common::simd::WeightedAccumulate(d, s, 1e-6f);
      }));
  rows.push_back(
      KernelRow("scaled_copy_1m", [](std::span<float> d,
                                     std::span<const float> s) {
        common::simd::ScaledCopy(d, s, 0.25f);
      }));
  rows.push_back(ActivationRow(
      "sigmoid_64k",
      [](const float* x, float* y, std::size_t n) {
        common::simd::Sigmoid(x, y, n);
      },
      [](float v) { return 1.0f / (1.0f + std::exp(-v)); }));
  rows.push_back(ActivationRow(
      "tanh_64k",
      [](const float* x, float* y, std::size_t n) {
        common::simd::Tanh(x, y, n);
      },
      [](float v) { return std::tanh(v); }));
  benchutil::WriteBenchJson(path, "micro_kernels", rows);
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
