// The benchmark's hooks must observe, never perturb: with the timing
// subclasses and the delay probe installed, a lockstep run (a pure function
// of its seed) must end on bitwise-identical parameters and the same
// controller message count as the plain run.
//
//   cmake --build .bench_build --target perfbench_hooks_test
//   ctest --test-dir .bench_build

#include <gtest/gtest.h>

#include <cstring>

#include "rna/core/rna.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

rna::train::TrainResult RunLockstep(Kind kind, HookLedger* hooks,
                                    Task* out = nullptr) {
  Task task = MakeTask(kind, /*seed=*/11, hooks);
  task.config.lockstep = true;
  task.config.max_rounds = 80;
  rna::train::TrainResult r = rna::core::RunTraining(
      task.config, task.factory, task.train, task.val);
  if (out != nullptr) *out = std::move(task);
  return r;
}

void ExpectSameRun(const rna::train::TrainResult& plain,
                   const rna::train::TrainResult& hooked) {
  ASSERT_EQ(plain.final_params.size(), hooked.final_params.size());
  EXPECT_EQ(std::memcmp(plain.final_params.data(), hooked.final_params.data(),
                        plain.final_params.size() * sizeof(float)),
            0);
  EXPECT_EQ(plain.controller_messages, hooked.controller_messages);
  EXPECT_EQ(plain.rounds, hooked.rounds);
  EXPECT_EQ(plain.gradients_applied, hooked.gradients_applied);
}

TEST(PerfbenchHooks, LockstepCommParamsBitwiseEqualWithTimingSubclasses) {
  const rna::train::TrainResult plain =
      RunLockstep(Kind::kLockstepComm, nullptr);
  HookLedger hooks;
  const rna::train::TrainResult hooked =
      RunLockstep(Kind::kLockstepComm, &hooks);
  ExpectSameRun(plain, hooked);

  // The hooks saw every step: one ForwardBackward per gradient computed
  // plus one arena-pinning warm-up per worker.
  std::size_t calls = 0;
  for (const HookLedger::Replica& r : hooks.Take()) {
    calls += r.forward_backward.size();
  }
  EXPECT_GE(calls, hooked.gradients_applied + 8);
}

TEST(PerfbenchHooks, DelayProbeIsPassThrough) {
  const rna::train::TrainResult plain =
      RunLockstep(Kind::kMixedHetero, nullptr);
  HookLedger hooks;
  Task task;
  const rna::train::TrainResult hooked =
      RunLockstep(Kind::kMixedHetero, &hooks, &task);
  ExpectSameRun(plain, hooked);
  ASSERT_NE(task.delay_probe, nullptr);
  EXPECT_GT(task.delay_probe->Calls(), 0u);
}

}  // namespace
}  // namespace perfbench
