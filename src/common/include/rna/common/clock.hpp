#pragma once

// Time helpers. Real time is always measured with steady_clock; simulated
// time lives in rna::sim. Durations inside the project are expressed as
// double seconds to keep arithmetic with workload models simple.

#include <chrono>
#include <ctime>
#include <thread>

namespace rna::common {

using SteadyClock = std::chrono::steady_clock;

/// Seconds as a double; the unit used throughout the simulator and the
/// workload models.
using Seconds = double;

/// The deadline of every protocol wait in a fault-free run (see
/// train::DeadlinesFor). Nothing can drop a message there, so the bound is
/// never reached unless a protocol bug loses one; the run then takes the
/// fault path's recovery instead of hanging.
inline constexpr Seconds kLosslessDeadline = 30.0;

inline Seconds ToSeconds(SteadyClock::duration d) {
  return std::chrono::duration<double>(d).count();
}

inline SteadyClock::duration FromSeconds(Seconds s) {
  return std::chrono::duration_cast<SteadyClock::duration>(
      std::chrono::duration<double>(s));
}

/// The project's sanctioned blocking sleep, used only to model real time
/// passing (straggler injection in WorkerContext). Library code must not
/// sleep for synchronization — wait on a CondVar instead so shutdown can
/// interrupt the wait; tools/lint.py bans std::this_thread::sleep_for
/// outside this header and tests.
inline void SleepFor(Seconds s) {
  if (s > 0.0) std::this_thread::sleep_for(FromSeconds(s));
}

/// CPU seconds consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID).
/// For busy-time accounting that must mean "work done": a thread that is
/// descheduled accrues no CPU time, so the figure stays comparable when
/// hundreds of threads oversubscribe the cores (where wall-clock sections
/// would mostly measure preemption).
inline Seconds ThreadCpuSeconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<Seconds>(ts.tv_sec) +
         1e-9 * static_cast<Seconds>(ts.tv_nsec);
#else
  return ToSeconds(SteadyClock::now().time_since_epoch());
#endif
}

/// RAII delta of ThreadCpuSeconds() added to `*acc` on destruction.
class ScopedCpuAccumulator {
 public:
  explicit ScopedCpuAccumulator(Seconds* acc)
      : acc_(acc), start_(ThreadCpuSeconds()) {}
  ScopedCpuAccumulator(const ScopedCpuAccumulator&) = delete;
  ScopedCpuAccumulator& operator=(const ScopedCpuAccumulator&) = delete;
  ~ScopedCpuAccumulator() { *acc_ += ThreadCpuSeconds() - start_; }

 private:
  Seconds* acc_;
  Seconds start_;
};

/// Simple wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(SteadyClock::now()) {}

  void Reset() { start_ = SteadyClock::now(); }

  Seconds Elapsed() const { return ToSeconds(SteadyClock::now() - start_); }

 private:
  SteadyClock::time_point start_;
};

}  // namespace rna::common
