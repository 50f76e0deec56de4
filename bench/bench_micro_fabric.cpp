// Microbenchmarks for the communication substrate: fabric point-to-point
// latency, ring allreduce and partial allreduce cost across world sizes,
// and PS push/pull round trips.
//
// Two modes:
//   (default)            google-benchmark sweep (all BM_* below).
//   --json-out <path>    pinned baseline workloads only, written as a
//                        BENCH_micro_fabric.json artifact. CI's bench-smoke
//                        job compares it against bench/baselines/ via
//                        tools/bench_gate.py, so the row labels and value
//                        keys below are a stable contract.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "rna/collectives/allreduce.hpp"
#include "rna/net/fabric.hpp"
#include "rna/ps/server.hpp"

using namespace rna;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Waits in bounded slices until the message arrives or the fabric shuts
/// down (RecvFor with timeout 0 is a try-receive).
std::optional<net::Message> BlockingRecv(net::Fabric& fabric, net::Rank at,
                                         int tag) {
  for (;;) {
    auto msg = fabric.RecvFor(at, tag, 0.05);
    if (msg.has_value() || fabric.IsClosed(at)) return msg;
  }
}

// ---------------------------------------------------------------------------
// google-benchmark sweep

void BM_FabricPingPong(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  net::Fabric fabric(2);
  std::thread echo([&] {
    for (;;) {
      auto msg = fabric.RecvFor(1, 1, 0.05);
      if (!msg.has_value()) {
        if (fabric.IsClosed(1)) break;
        continue;
      }
      if (msg->meta.size() == 1 && msg->meta[0] < 0) break;
      net::Message reply;
      reply.tag = 2;
      reply.data = std::move(msg->data);
      fabric.Send(1, 0, std::move(reply));
    }
  });
  std::vector<float> payload(bytes / sizeof(float), 1.0f);
  for (auto _ : state) {
    net::Message msg;
    msg.tag = 1;
    msg.data = fabric.Pool().Acquire(payload.size());
    std::copy(payload.begin(), payload.end(), msg.data.begin());
    fabric.Send(0, 1, std::move(msg));
    auto reply = BlockingRecv(fabric, 0, 2);
    benchmark::DoNotOptimize(reply->data.data());
    fabric.Pool().Recycle(std::move(reply->data));
  }
  net::Message stop;
  stop.tag = 1;
  stop.meta = {-1};
  fabric.Send(0, 1, std::move(stop));
  echo.join();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes) * 2);
}
BENCHMARK(BM_FabricPingPong)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void RunAllreduceRounds(std::size_t world, std::size_t elements,
                        std::size_t rounds, bool partial) {
  net::Fabric fabric(world);
  const collectives::Group group = collectives::Group::Full(world);
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      std::vector<float> data(elements, 1.0f);
      for (std::size_t round = 0; round < rounds; ++round) {
        collectives::CollectiveOptions opts;
        opts.tag_base = 1000 + static_cast<int>(round % 2) * 4096;
        if (partial) {
          collectives::PartialAllreduceFor({fabric, group, r}, opts, data,
                                           /*contributes=*/r % 2 == 0);
        } else {
          collectives::Allreduce({fabric, group, r}, opts, data);
          for (auto& x : data) x = 1.0f;  // keep values bounded
        }
      }
    });
  }
  for (auto& t : threads) t.join();
}

void BM_RingAllreduce(benchmark::State& state) {
  const auto world = static_cast<std::size_t>(state.range(0));
  const auto elements = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    RunAllreduceRounds(world, elements, 8, /*partial=*/false);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8);
}
BENCHMARK(BM_RingAllreduce)
    ->Args({2, 1 << 14})
    ->Args({4, 1 << 14})
    ->Args({8, 1 << 14})
    ->Args({4, 1 << 18});

void BM_RingPartialAllreduce(benchmark::State& state) {
  const auto world = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    RunAllreduceRounds(world, 1 << 14, 8, /*partial=*/true);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8);
}
BENCHMARK(BM_RingPartialAllreduce)->Arg(2)->Arg(4)->Arg(8);

void BM_PsPushPull(benchmark::State& state) {
  const auto elements = static_cast<std::size_t>(state.range(0));
  net::Fabric fabric(2);
  ps::ParameterServer server(fabric, 1,
                             std::vector<float>(elements, 0.0f));
  server.Start();
  ps::PsClient client(fabric, 0, 1, elements);
  const std::vector<float> payload(elements, 1.0f);
  for (auto _ : state) {
    auto result = client.TryPushPull(payload, ps::ApplyMode::kAverage);
    benchmark::DoNotOptimize(result);
  }
  server.Stop();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(elements * sizeof(float)) *
                          2);
}
BENCHMARK(BM_PsPushPull)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

// ---------------------------------------------------------------------------
// --json-out mode: pinned workloads whose numbers are regression-gated.

/// Acceptance workload: ring allreduce, world 8, 1M floats. Also verifies
/// the allocation-free steady state — after warmup, every hop payload must
/// come from the pool (zero further misses).
benchutil::BenchRow RingBaselineRow() {
  constexpr std::size_t kWorld = 8;
  constexpr std::size_t kElems = 1u << 20;
  constexpr int kWarmup = 2;
  constexpr int kIters = 10;

  net::Fabric fabric(kWorld);
  const auto group = collectives::Group::Full(kWorld);
  std::vector<std::vector<float>> bufs(kWorld,
                                       std::vector<float>(kElems, 1.0f));
  auto run_round = [&](int round) {
    std::vector<std::thread> threads;
    for (std::size_t r = 0; r < kWorld; ++r) {
      threads.emplace_back([&, r] {
        collectives::CollectiveOptions opts;
        opts.tag_base = round * 1000;
        collectives::Allreduce({fabric, group, r}, opts, bufs[r]);
      });
    }
    for (auto& t : threads) t.join();
  };

  for (int i = 0; i < kWarmup; ++i) run_round(i);
  const auto warm = fabric.Pool().GetStats();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) run_round(kWarmup + i);
  const double secs = SecondsSince(t0);
  const auto done = fabric.Pool().GetStats();

  benchutil::BenchRow row;
  row.label = "ring_allreduce_w8_1m";
  row.values["elems_per_s"] = static_cast<double>(kElems) * kIters / secs;
  row.values["pool_hit_rate"] = done.HitRate();
  row.values["pool_steady_misses"] =
      static_cast<double>(done.misses - warm.misses);
  return row;
}

benchutil::BenchRow PingPongBaselineRow() {
  constexpr std::size_t kElems = 1u << 14;  // 64 KiB payload
  constexpr int kWarmup = 50;
  constexpr int kIters = 500;

  net::Fabric fabric(2);
  std::thread echo([&] {
    for (;;) {
      auto msg = fabric.RecvFor(1, 1, 0.05);
      if (!msg.has_value()) {
        if (fabric.IsClosed(1)) break;
        continue;
      }
      if (msg->meta.size() == 1 && msg->meta[0] < 0) break;
      net::Message reply;
      reply.tag = 2;
      reply.data = std::move(msg->data);
      fabric.Send(1, 0, std::move(reply));
    }
  });
  const std::vector<float> payload(kElems, 1.0f);
  auto roundtrip = [&] {
    net::Message msg;
    msg.tag = 1;
    msg.data = fabric.Pool().Acquire(kElems);
    std::copy(payload.begin(), payload.end(), msg.data.begin());
    fabric.Send(0, 1, std::move(msg));
    auto reply = BlockingRecv(fabric, 0, 2);
    fabric.Pool().Recycle(std::move(reply->data));
  };
  for (int i = 0; i < kWarmup; ++i) roundtrip();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) roundtrip();
  const double secs = SecondsSince(t0);
  net::Message stop;
  stop.tag = 1;
  stop.meta = {-1};
  fabric.Send(0, 1, std::move(stop));
  echo.join();

  benchutil::BenchRow row;
  row.label = "pingpong_64k";
  row.values["roundtrips_per_s"] = kIters / secs;
  row.values["bytes_per_s"] =
      static_cast<double>(kElems) * sizeof(float) * 2 * kIters / secs;
  return row;
}

int JsonMain(const std::string& path) {
  std::vector<benchutil::BenchRow> rows;
  rows.push_back(RingBaselineRow());
  rows.push_back(PingPongBaselineRow());
  benchutil::WriteBenchJson(path, "micro_fabric", rows);
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
